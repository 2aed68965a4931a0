//! `perfbench`: the closed-loop serving benchmark of the robust-qp
//! workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm|cold|restart|remote --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation plays one workload in this process: a fixed,
//! seed-generated list of (query, algo, qa) sessions, sized from
//! `--seconds`, driven as a closed loop through the serving tier's public
//! API (`Server`, `TcpServeHost`, `TcpTransport`). Latency is timed by
//! the client, from submit to the receipt of the session's result. Every
//! session's answer is checked bit for bit against discovery on a locally
//! compiled surface. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` plays half the sessions untraced and again with the
//! program's events recorded, then times the lower layers directly,
//! printing the per-layer metrics. The
//! last stdout line is one JSON object; the exit code is non-zero if any
//! session failed or any check did not hold. See `WORKLOADS.md`.

mod check;
mod drive;
mod fixtures;
mod gen;
mod layers;
mod selftest;
mod stats;

use drive::{Kind, Pass};
use fixtures::Fixtures;
use rqp_serve::SessionSpec;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Each set-up builds the
/// state that the next slice of the timed phase plays against (the last
/// one only closes the run), so the set-ups spread evenly over the run
/// and their median samples the same stretch of host time as the timed
/// metrics, not one burst of host noise.
const SETUPS: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (warm|cold|restart|remote)")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for the report.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What a run prints.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    std::fs::remove_dir_all(drive::scratch_dir()).ok();
    std::fs::remove_dir(".perfbench-tmp").ok();
    match result {
        Ok(outcome) => {
            let ok = print(&args, &outcome);
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    selftest::run()?;
    let fixtures = Fixtures::load()?;
    let n = args.kind.sessions_for(args.seconds);
    let specs = gen::specs(&args.kind.weights(), &fixtures.cells(), n, args.seed, 0);
    if args.trace {
        layers::run(args.kind, &fixtures, &specs)
    } else {
        end_to_end(args.kind, &fixtures, &specs)
    }
}

/// Check every sample's answer; returns the failure descriptions.
fn check_answers(
    fixtures: &Fixtures,
    specs: &[SessionSpec],
    pass: &Pass,
) -> Result<Vec<String>, String> {
    let surfaces = fixtures.compile()?;
    let reference = check::reference(fixtures, &surfaces, specs)?;
    Ok(specs
        .iter()
        .zip(&pass.samples)
        .filter_map(|(spec, sample)| check::verdict(spec, sample, &reference))
        .collect())
}

/// Client-observed latencies in ms, ascending, of sessions with a result.
pub fn latencies_ms(pass: &Pass) -> Vec<f64> {
    let mut v: Vec<f64> = pass
        .samples
        .iter()
        .filter(|s| s.result.is_some())
        .filter_map(|s| s.latency())
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Play the timed phase in `SETUPS - 1` slices, each against a state
/// set up from scratch just before it (the previous one shut down first),
/// and set up once more at the end.
fn end_to_end(kind: Kind, fixtures: &Fixtures, specs: &[SessionSpec]) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut pass = Pass {
        samples: Vec::new(),
        wall: Duration::ZERO,
        cpu_s: 0.0,
        accept_cpu_s: 0.0,
        frames: Vec::new(),
    };
    let mut slices = specs.chunks(specs.len().div_ceil(SETUPS - 1).max(1));
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        let mut target = drive::setup(kind, rep)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if let Some(slice) = slices.next() {
            let part = drive::closed_loop(&mut target, kind, slice)?;
            pass.samples.extend(part.samples);
            pass.wall += part.wall;
            pass.cpu_s += part.cpu_s;
            pass.accept_cpu_s += part.accept_cpu_s;
        }
        target.shutdown()?;
    }
    let rss = stats::peak_rss_mb()?;
    let setup_s = stats::median(&setup_times);
    let listed: Vec<String> = setup_times.iter().map(|t| format!("{t:.4}")).collect();
    eprintln!("perfbench: set-up times (s): {}", listed.join(" "));
    let failures = check_answers(fixtures, specs, &pass)?;

    let n = specs.len();
    let lat = latencies_ms(&pass);
    let p = |q: f64| stats::nearest_rank(&lat, q).map_or(f64::NAN, |(v, _)| v);
    // The highest percentile the sample supports: p99 where at least ten
    // sessions lie beyond it, else p90.
    let (tail, tail_name) = match stats::supported(&lat, 99.0) {
        Some(v) => (v, "p99"),
        None => (stats::supported(&lat, 90.0).unwrap_or(f64::NAN), "p90"),
    };
    let subopts: Vec<f64> = pass.samples.iter().filter_map(|s| s.result.as_ref()?.subopt).collect();
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s", setup_times.len()),
        Metric::new("sessions_per_s", n as f64 / pass.wall.as_secs_f64(), "1/s", n),
        Metric::new("latency_p50_ms", p(50.0), "ms", lat.len()),
        Metric::new("latency_p90_ms", p(90.0), "ms", lat.len()),
        Metric::new(format!("latency_tail_ms[{tail_name}]"), tail, "ms", lat.len()),
        Metric::new("cpu_ms_per_session", pass.cpu_s * 1e3 / n as f64, "ms", n),
        Metric::new("subopt_mean", stats::mean(&subopts), "ratio", subopts.len()),
        Metric::new(
            "subopt_max",
            subopts.iter().copied().fold(f64::NAN, f64::max),
            "ratio",
            subopts.len(),
        ),
        Metric::new(
            "accept_cpu_ms_per_s",
            pass.accept_cpu_s * 1e3 / pass.wall.as_secs_f64(),
            "ms/s",
            n,
        ),
        Metric::new("rss_peak_mb", rss, "MB", 1),
        Metric::new("failed_frac", failures.len() as f64 / n as f64, "ratio", n),
    ];
    Ok(Outcome { attempted: n, failures, metrics })
}

/// Metrics printed in the report but kept out of the JSON line:
/// `accept_cpu_ms_per_s` is the TCP accept loops' idle polling, left out
/// of `cpu_ms_per_session` (zero in-proc); `failed_frac` is zero on a
/// correct run and travels as
/// `attempted`/`failed`; p90 is the tail on cold and remote, and on warm
/// and restart it wanders between runs more than p50 and p99; ASO and MSO
/// depend only on the seed's qa draws, and on the small-count workloads
/// they vary between seeds by more than any regression bound could allow.
const REPORT_ONLY: [&str; 5] =
    ["accept_cpu_ms_per_s", "failed_frac", "latency_p90_ms", "subopt_mean", "subopt_max"];

/// Print the human report and the JSON line; true when the run is
/// correct.
fn print(args: &Args, outcome: &Outcome) -> bool {
    let mut correct = outcome.failures.is_empty();
    println!(
        "perfbench {} seed={} sessions={} in_flight={} trace={}",
        args.kind.name(),
        args.seed,
        outcome.attempted,
        args.kind.in_flight(),
        u8::from(args.trace)
    );
    for f in outcome.failures.iter().take(10) {
        println!("  FAILED {f}");
    }
    let mut json = String::new();
    for m in &outcome.metrics {
        println!("  {:<34} {:>14.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        let name = m.name.split('[').next().unwrap_or(&m.name);
        if REPORT_ONLY.contains(&name) {
            continue;
        }
        if !m.value.is_finite() {
            println!("  FAILED metric {name} is not a finite number");
            correct = false;
            continue;
        }
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted,
        outcome.failures.len()
    );
    correct
}
