//! The answer check: every timed session's suboptimality, step count and
//! total cost must equal, bit for bit, what `Discovery::discover` returns
//! for the same (query, algo, qa) on a surface compiled locally.

use crate::drive::Sample;
use crate::fixtures::Fixtures;
use crate::gen::{fixture_index, ALGOS};
use rqp_ess::Ess;
use rqp_serve::{algo_by_name, SessionOutcome, SessionSpec};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// (fixture index, algo index, qa cell).
pub type Key = (usize, usize, usize);

/// The bits a session's answer is compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub subopt: u64,
    pub steps: usize,
    pub total_cost: u64,
}

pub fn key_of(spec: &SessionSpec) -> Result<Key, String> {
    let f = fixture_index(&spec.query).ok_or_else(|| format!("unknown query {}", spec.query))?;
    let a = ALGOS.iter().position(|a| *a == spec.algo).ok_or("unknown algo")?;
    Ok((f, a, spec.qa.ok_or("spec without qa")?))
}

/// Reference answers for every distinct key of `specs`, computed on two
/// threads against the shared local surfaces.
pub fn reference(
    fixtures: &Fixtures,
    surfaces: &[Arc<Ess>],
    specs: &[SessionSpec],
) -> Result<HashMap<Key, Answer>, String> {
    let keys: BTreeSet<Key> = specs.iter().map(key_of).collect::<Result<_, _>>()?;
    let keys: Vec<Key> = keys.into_iter().collect();
    let half = keys.len().div_ceil(2);
    let parts: Vec<Result<Vec<(Key, Answer)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| s.spawn(|| answers(fixtures, surfaces, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("reference thread panicked".to_string())))
            .collect()
    });
    let mut out = HashMap::with_capacity(keys.len());
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

fn answers(
    fixtures: &Fixtures,
    surfaces: &[Arc<Ess>],
    keys: &[Key],
) -> Result<Vec<(Key, Answer)>, String> {
    let runtimes = fixtures.runtimes(surfaces)?;
    let algos: Vec<_> = ALGOS
        .iter()
        .map(|a| algo_by_name(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(keys
        .iter()
        .map(|&(f, a, qa)| {
            let trace = algos[a].discover(&runtimes[f], qa);
            let answer = Answer {
                subopt: trace.subopt().to_bits(),
                steps: trace.num_executions(),
                total_cost: trace.total_cost.to_bits(),
            };
            ((f, a, qa), answer)
        })
        .collect())
}

/// Why a sample fails the check, if it does.
pub fn verdict(
    spec: &SessionSpec,
    sample: &Sample,
    reference: &HashMap<Key, Answer>,
) -> Option<String> {
    if let Some(why) = &sample.refused {
        return Some(format!("session {} refused: {why}", spec.id));
    }
    let Some(r) = &sample.result else {
        return Some(format!("session {} has no result", spec.id));
    };
    if r.outcome != SessionOutcome::Completed {
        return Some(format!("session {} ended {}", spec.id, r.outcome.label()));
    }
    let Some(want) = key_of(spec).ok().and_then(|k| reference.get(&k)) else {
        return Some(format!("session {} has no reference answer", spec.id));
    };
    let got = Answer {
        subopt: r.subopt.map_or(u64::MAX, f64::to_bits),
        steps: r.steps,
        total_cost: r.total_cost.map_or(u64::MAX, f64::to_bits),
    };
    (got != *want).then(|| {
        format!(
            "session {} ({} {} qa={:?}): got {:?}, reference {:?}",
            spec.id, spec.query, spec.algo, spec.qa, got, want
        )
    })
}
