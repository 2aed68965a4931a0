//! The chaos sweep: run every discovery algorithm against seeded fault
//! schedules and check the robustness invariants that survive injection.
//!
//! Three invariants are asserted on **every** run, regardless of fault
//! class:
//!
//! 1. **Termination with honest accounting** — discovery returns, every
//!    step's expenditure is finite and non-negative, and the step
//!    expenditures sum to the trace's accounted total
//!    ([`check_trace_accounting`]); wasted retry work is accounted cost,
//!    never hidden cost.
//! 2. **Guaranteed completion for the bouquet family** — PlanBouquet,
//!    SpillBound and AlignedBound never report a structured failure: the
//!    supervisor's quarantine → fall-through → last-resort ladder always
//!    ends in a completed execution. (Native and ReOpt are *allowed* to
//!    fail structurally — that asymmetry is the point of the baseline.)
//! 3. **Degraded cost cap** — the bouquet family's accounted cost stays
//!    below [`degraded_cost_cap`]: per band, at most `D` spill plus
//!    `density` full executions, each dilated by at most the supervisor's
//!    [`degraded_factor`].
//!
//! Quiet (zero-rate) schedules additionally assert the *clean* guarantees
//! — SpillBound and AlignedBound within the band-adjusted `2·(D²+3D)` —
//! so the control arm proves the supervisor costs nothing when nothing
//! goes wrong.

use crate::plan::{FaultConfig, FaultCounts, FaultPlan};
use rqp_core::invariants::check_trace_accounting;
use rqp_core::{
    degraded_factor, sb_guarantee, AlignedBound, Discovery, NativeOptimizer, PlanBouquet,
    ReOptimizer, RobustRuntime, SpillBound,
};
use rqp_ess::Cell;

/// Relative slack for bound comparisons.
const SLACK: f64 = 1e-9;

/// The per-class schedule suite swept for one seed: the quiet control
/// arm, one single-class schedule per fault class, and a mixed storm.
pub fn standard_schedules(seed: u64, rate: f64) -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("quiet", FaultConfig::quiet(seed)),
        ("fail", FaultConfig::single(seed.wrapping_add(1), "fail", rate)),
        ("spurious_exhaust", FaultConfig::single(seed.wrapping_add(2), "spurious_exhaust", rate)),
        ("perturb_cost", FaultConfig::single(seed.wrapping_add(3), "perturb_cost", rate)),
        (
            "corrupt_observation",
            FaultConfig::single(seed.wrapping_add(4), "corrupt_observation", rate),
        ),
        ("storm", FaultConfig::storm(seed.wrapping_add(5), rate)),
    ]
}

/// Upper bound on what a supervised bouquet-family discovery can spend:
/// per band, `D` spill executions plus the full contour density of
/// budgeted executions, every one dilated by the supervisor's worst-case
/// charge factor, at the band's upper cost edge.
pub fn degraded_cost_cap(rt: &RobustRuntime<'_>) -> f64 {
    let d = rt.dims() as f64;
    let factor = degraded_factor();
    let mut cap = 0.0;
    for b in 0..rt.num_bands() {
        let density = rt.band_density(b).max(1) as f64;
        let edge_hi = rt.contour_cost(b) * rt.contour_ratio();
        cap += (d + density) * factor * edge_hi;
    }
    cap
}

/// One algorithm × schedule × instance outcome.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Algorithm display name.
    pub algo: &'static str,
    /// Schedule label (fault class).
    pub schedule: &'static str,
    /// The schedule's seed after per-run mixing.
    pub seed: u64,
    /// The query instance.
    pub qa: Cell,
    /// Faults the plan injected during this run.
    pub faults: FaultCounts,
    /// Trace steps (executions, including retries).
    pub steps: usize,
    /// Retried executions in the trace.
    pub retries: usize,
    /// Plans quarantined during the run.
    pub quarantined: usize,
    /// Accounted discovery cost.
    pub total_cost: f64,
    /// Accounted sub-optimality (cost / oracle).
    pub subopt: f64,
    /// Whether the trace reports a structured failure.
    pub failed: bool,
}

/// Aggregated sweep results.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Every run, in sweep order.
    pub runs: Vec<ChaosRun>,
}

impl ChaosReport {
    /// Total faults injected across the sweep.
    pub fn total_faults(&self) -> u32 {
        self.runs.iter().map(|r| r.faults.total()).sum()
    }

    /// Runs that ended in a structured failure (baselines only).
    pub fn structured_failures(&self) -> usize {
        self.runs.iter().filter(|r| r.failed).count()
    }

    /// Human-readable sweep summary, one line per algorithm × schedule.
    pub fn render(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;
        #[derive(Default)]
        struct Agg {
            runs: usize,
            faults: u32,
            retries: usize,
            failures: usize,
            max_subopt: f64,
        }
        let mut agg: BTreeMap<(&str, &str), Agg> = BTreeMap::new();
        for r in &self.runs {
            let e = agg.entry((r.algo, r.schedule)).or_default();
            e.runs += 1;
            e.faults += r.faults.total();
            e.retries += r.retries;
            e.failures += usize::from(r.failed);
            e.max_subopt = e.max_subopt.max(r.subopt);
        }
        let mut out = String::from(
            "algo       schedule              runs  faults  retries  failures  max-subopt\n",
        );
        for ((algo, sched), Agg { runs, faults, retries, failures, max_subopt: max_so }) in agg {
            let _ = writeln!(
                out,
                "{algo:<10} {sched:<20} {runs:>5} {faults:>7} {retries:>8} {failures:>9}  {max_so:>9.3}",
            );
        }
        let _ = writeln!(
            out,
            "total: {} runs, {} faults injected, {} structured failures",
            self.runs.len(),
            self.total_faults(),
            self.structured_failures()
        );
        out
    }
}

fn algorithms() -> Vec<Box<dyn Discovery>> {
    vec![
        Box::new(PlanBouquet::new()),
        Box::new(SpillBound::new()),
        Box::new(AlignedBound::new()),
        Box::new(NativeOptimizer),
        Box::new(ReOptimizer::default()),
    ]
}

fn is_bouquet_family(name: &str) -> bool {
    matches!(name, "PB" | "SB" | "AB")
}

/// Sweep every discovery algorithm over `cells` × `schedules` on a
/// runtime whose engine carries `plan` as its fault injector, asserting
/// the robustness invariants described in the module docs.
///
/// The caller attaches the plan (`rt.set_fault_injector(&plan)`) before
/// calling; the sweep reconfigures it in place per run, mixing the
/// schedule seed with the algorithm and instance so no two runs share a
/// fault stream.
///
/// # Errors
/// Returns the first invariant violation, fully seeded for replay.
pub fn sweep(
    rt: &RobustRuntime<'_>,
    plan: &FaultPlan,
    cells: &[Cell],
    schedules: &[(&'static str, FaultConfig)],
) -> Result<ChaosReport, String> {
    let algos = algorithms();
    let cap = degraded_cost_cap(rt);
    let clean_sb_bound = 2.0 * sb_guarantee(rt.dims());
    let mut report = ChaosReport::default();

    for (label, base) in schedules {
        for (ai, algo) in algos.iter().enumerate() {
            for &qa in cells {
                let mut cfg = *base;
                cfg.seed = base
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((ai as u64) << 32)
                    .wrapping_add(qa as u64);
                plan.reconfigure(cfg);
                let trace = algo.discover(rt, qa);
                let faults = plan.counts();
                let ctx = format!("{} / {label} / seed {} / qa {qa}", algo.name(), cfg.seed);

                check_trace_accounting(&trace).map_err(|e| format!("{ctx}: {e}"))?;
                if !trace.subopt().is_finite() || trace.subopt() <= 0.0 {
                    return Err(format!("{ctx}: subopt {} not finite/positive", trace.subopt()));
                }
                let completed = trace.steps.last().is_some_and(|s| s.completed);
                if !trace.failed() && !completed {
                    return Err(format!("{ctx}: neither completed nor structured failure"));
                }
                if is_bouquet_family(algo.name()) {
                    if trace.failed() {
                        return Err(format!(
                            "{ctx}: bouquet-family algorithm reported a structured failure"
                        ));
                    }
                    if trace.total_cost > cap * (1.0 + SLACK) {
                        return Err(format!(
                            "{ctx}: accounted cost {} breaches the degraded cap {cap}",
                            trace.total_cost
                        ));
                    }
                }
                if *label == "quiet" {
                    if trace.failed() {
                        return Err(format!("{ctx}: structured failure without any faults"));
                    }
                    if faults.total() != 0 {
                        return Err(format!("{ctx}: quiet schedule injected {faults:?}"));
                    }
                    if matches!(algo.name(), "SB" | "AB")
                        && trace.subopt() > clean_sb_bound * (1.0 + SLACK)
                    {
                        return Err(format!(
                            "{ctx}: clean subopt {} exceeds the band-adjusted bound \
                             {clean_sb_bound}",
                            trace.subopt()
                        ));
                    }
                }

                report.runs.push(ChaosRun {
                    algo: algo.name(),
                    schedule: label,
                    seed: cfg.seed,
                    qa,
                    faults,
                    steps: trace.steps.len(),
                    retries: trace.retries(),
                    quarantined: trace.quarantined.len(),
                    total_cost: trace.total_cost,
                    subopt: trace.subopt(),
                    failed: trace.failed(),
                });
            }
        }
    }
    // leave the injector quiet so later (non-chaos) use of the runtime is
    // unaffected even though the plan stays attached
    plan.reconfigure(FaultConfig::quiet(0));
    Ok(report)
}

/// A small deterministic spread of query instances for sweeps: origin,
/// interior points and the terminus.
pub fn probe_cells(rt: &RobustRuntime<'_>) -> Vec<Cell> {
    let grid = rt.grid();
    let n = grid.num_cells();
    let mut cells = vec![grid.origin(), n / 3, n / 2, 2 * n / 3, grid.terminus()];
    cells.dedup();
    cells
}
