//! Self-tests of the generator and the statistics, run at the start of
//! every invocation (they take microseconds) and by `cargo test`.

use crate::drive::Kind;
use crate::fixtures::Fixtures;
use crate::gen::{self, FIXTURES};
use crate::stats::{nearest_rank, supported};

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("self-test failed: {what}"))
    }
}

pub fn run() -> Result<(), String> {
    generator()?;
    percentiles()?;
    cold_mix()
}

/// Same seed, same specs; another seed, other specs; any seed, the same
/// (query, algo) sequence.
fn generator() -> Result<(), String> {
    let cells = Fixtures::load()?.cells();
    let w = Kind::Warm.weights();
    let a = gen::specs(&w, &cells, 240, 7, 0);
    let b = gen::specs(&w, &cells, 240, 7, 0);
    let c = gen::specs(&w, &cells, 240, 8, 0);
    ensure(a == b, "the same seed gives the same specs")?;
    ensure(a != c, "another seed gives other specs")?;
    let pairs = |v: &[rqp_serve::SessionSpec]| -> Vec<(String, String)> {
        v.iter().map(|s| (s.query.clone(), s.algo.clone())).collect()
    };
    ensure(pairs(&a) == pairs(&c), "every seed plays the same (query, algo) sequence")?;
    ensure(
        a.iter().all(|s| {
            gen::fixture_index(&s.query).is_some_and(|f| s.qa.is_some_and(|qa| qa < cells[f]))
        }),
        "every qa lies on its fixture's grid",
    )?;
    ensure(gen::session_count(&Kind::Cold.weights(), 100) == 120, "counts round to whole cycles")
}

/// Nearest-rank values on known inputs, and the ten-beyond rule. The
/// inputs are whole numbers, so values compare as integers.
fn percentiles() -> Result<(), String> {
    let rank = |v: &[f64], p: f64, want: Option<(u32, usize)>, what: &str| {
        ensure(nearest_rank(v, p).map(|(x, beyond)| (x as u32, beyond)) == want, what)
    };
    let kept = |v: &[f64], p: f64, want: Option<u32>, what: &str| {
        ensure(supported(v, p).map(|x| x as u32) == want, what)
    };
    let whole = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
    let (ten, hundred) = (whole(10), whole(100));
    rank(&ten, 50.0, Some((5, 5)), "p50 of 1..=10 is 5")?;
    rank(&ten, 90.0, Some((9, 1)), "p90 of 1..=10 is 9")?;
    rank(&ten, 99.0, Some((10, 0)), "p99 of 1..=10 is 10")?;
    rank(&ten, 0.0, Some((1, 9)), "p0 is the minimum")?;
    rank(&[], 50.0, None, "no percentile of nothing")?;
    kept(&hundred, 90.0, Some(90), "p90 of 100 samples has 10 beyond")?;
    kept(&hundred, 99.0, None, "p99 of 100 samples is withheld")?;
    kept(&hundred[..99], 90.0, None, "p90 of 99 samples is withheld")?;
    kept(&whole(1000), 99.0, Some(990), "p99 of 1000 samples has 10 beyond")
}

/// Cold latency is one band per fixture, ordered by compile cost. Its mix
/// must put each reported percentile's rank inside one band, at least 5%
/// of the sessions away from either edge.
fn cold_mix() -> Result<(), String> {
    let by_cost = ["3D_Q15", "JOB_Q1a", "4D_Q91", "5D_Q19"];
    let weights = Kind::Cold.weights();
    let share = |q: &str| {
        let f = FIXTURES.iter().position(|f| *f == q).map_or(0, |f| weights[f]);
        f as f64 / weights.iter().sum::<usize>() as f64
    };
    for p in [0.5, 0.9] {
        let mut lo = 0.0;
        let inside = by_cost.iter().any(|q| {
            let hi = lo + share(q);
            let ok = p > lo + 0.05 && p < hi - 0.05;
            lo = hi;
            ok
        });
        ensure(inside, &format!("cold p{} sits inside one fixture band", p * 100.0))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_tests_pass() {
        assert_eq!(super::run(), Ok(()));
    }
}
