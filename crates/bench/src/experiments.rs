//! The per-figure/per-table experiment implementations.

use crate::{runtime_for, Scale};
use rqp_core::{
    alignment_stats, evaluate, evaluate_sampled, native::native_mso_worst_estimate, pb_guarantee,
    sb_guarantee, AlignedBound, Discovery, Evaluation, NativeOptimizer, PlanBouquet, RobustRuntime,
    SpillBound,
};
use rqp_ess::CompileCache;
use rqp_workloads::{BenchQuery, Workload};

/// λ used for anorexic reduction throughout (the paper's default, §6.2).
pub const LAMBDA: f64 = 0.2;

fn eval_at_scale(rt: &RobustRuntime<'_>, algo: &dyn Discovery, scale: Scale) -> Evaluation {
    let stride = scale.eval_stride(rt.grid().num_cells());
    if stride <= 1 {
        evaluate(rt, algo)
    } else {
        evaluate_sampled(rt, algo, stride)
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — SpillBound execution trace on 2D_Q91
// ---------------------------------------------------------------------

/// The Fig. 7 experiment: a refined-bounds SpillBound trace for 2D_Q91 with
/// the query instance in the upper-middle of the ESS, rendered as the
/// Manhattan-profile execution listing.
pub fn fig7_trace(scale: Scale, cache: Option<&CompileCache>) -> String {
    let w = Workload::q91(2).expect("Q91 builds");
    let rt = runtime_for(&w, scale, cache);
    let grid = rt.grid();
    // qa ≈ (0.04, 0.1), as in the paper's trace
    let qa = grid.index(&[grid.snap_ceil(0, 0.04), grid.snap_ceil(1, 0.1)]);
    let sb = SpillBound::with_refined_bounds();
    let trace = sb.discover(&rt, qa);
    let mut out = String::new();
    out.push_str(&format!(
        "2D_Q91, qa = {} (cell {qa}), {} contours\n",
        grid.location(qa),
        rt.num_bands()
    ));
    out.push_str(&trace.render());
    out
}

// ---------------------------------------------------------------------
// Fig. 8 / Fig. 9 — MSO guarantees
// ---------------------------------------------------------------------

/// One row of the guarantee comparison.
#[derive(Debug, Clone)]
pub struct GuaranteeRow {
    /// Query name (`xD_Qz`).
    pub query: String,
    /// ESS dimensionality.
    pub dims: usize,
    /// ρ_red: max contour density after anorexic reduction.
    pub rho_red: usize,
    /// PlanBouquet guarantee `4(1+λ)ρ_red`.
    pub pb_guarantee: f64,
    /// SpillBound guarantee `D²+3D`.
    pub sb_guarantee: f64,
}

/// Fig. 8: MSO guarantees of PB vs SB across the query suite.
pub fn fig8_mso_guarantees(scale: Scale, cache: Option<&CompileCache>) -> Vec<GuaranteeRow> {
    BenchQuery::all()
        .iter()
        .map(|&bq| {
            let w = Workload::tpcds(bq).expect("suite query builds");
            let rt = runtime_for(&w, scale, cache);
            guarantee_row(&rt, bq.name())
        })
        .collect()
}

fn guarantee_row(rt: &RobustRuntime<'_>, name: &str) -> GuaranteeRow {
    let pb = PlanBouquet::anorexic(rt, LAMBDA).expect("anorexic reduction");
    let rho_red = pb.rho(rt);
    GuaranteeRow {
        query: name.to_string(),
        dims: rt.dims(),
        rho_red,
        pb_guarantee: pb_guarantee(rho_red, LAMBDA),
        sb_guarantee: sb_guarantee(rt.dims()),
    }
}

/// Fig. 9: guarantee variation with dimensionality for Q91 (D = 2..6).
pub fn fig9_dimensionality(scale: Scale, cache: Option<&CompileCache>) -> Vec<GuaranteeRow> {
    (2..=6)
        .map(|d| {
            let w = Workload::q91(d).expect("Q91 builds");
            let rt = runtime_for(&w, scale, cache);
            guarantee_row(&rt, &w.query.name)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 10 / Fig. 11 — empirical MSO and ASO
// ---------------------------------------------------------------------

/// One row of the empirical comparison (Figs. 10 & 11 share the runs).
#[derive(Debug, Clone)]
pub struct EmpiricalRow {
    /// Query name.
    pub query: String,
    /// ESS dimensionality.
    pub dims: usize,
    /// PlanBouquet empirical MSO.
    pub pb_mso: f64,
    /// SpillBound empirical MSO.
    pub sb_mso: f64,
    /// PlanBouquet ASO.
    pub pb_aso: f64,
    /// SpillBound ASO.
    pub sb_aso: f64,
}

/// Figs. 10 & 11: empirical MSO and ASO of PB (anorexic, λ=0.2) vs SB over
/// the query suite, by exhaustive (or stride-sampled at high D) enumeration
/// of the ESS.
pub fn fig10_11_empirical(scale: Scale, cache: Option<&CompileCache>) -> Vec<EmpiricalRow> {
    BenchQuery::all()
        .iter()
        .map(|&bq| {
            let w = Workload::tpcds(bq).expect("suite query builds");
            let rt = runtime_for(&w, scale, cache);
            let pb = PlanBouquet::anorexic(&rt, LAMBDA).expect("anorexic reduction");
            let sb = SpillBound::new();
            let pb_ev = eval_at_scale(&rt, &pb, scale);
            let sb_ev = eval_at_scale(&rt, &sb, scale);
            EmpiricalRow {
                query: bq.name().to_string(),
                dims: rt.dims(),
                pb_mso: pb_ev.mso,
                sb_mso: sb_ev.mso,
                pb_aso: pb_ev.aso,
                sb_aso: sb_ev.aso,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 12 — sub-optimality distribution for 4D_Q91
// ---------------------------------------------------------------------

/// The Fig. 12 histogram: fraction of ESS locations per sub-optimality bin
/// (width 5) for PB and SB on 4D_Q91.
#[derive(Debug, Clone)]
pub struct HistogramResult {
    /// Bin lower edges.
    pub bins: Vec<f64>,
    /// PB fraction per bin.
    pub pb: Vec<f64>,
    /// SB fraction per bin.
    pub sb: Vec<f64>,
}

/// Fig. 12: sub-optimality distribution over the ESS for 4D_Q91.
pub fn fig12_distribution(scale: Scale, cache: Option<&CompileCache>) -> HistogramResult {
    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("suite query builds");
    let rt = runtime_for(&w, scale, cache);
    let pb_ev =
        eval_at_scale(&rt, &PlanBouquet::anorexic(&rt, LAMBDA).expect("anorexic reduction"), scale);
    let sb_ev = eval_at_scale(&rt, &SpillBound::new(), scale);
    let pb_h = pb_ev.histogram(5.0, 10);
    let sb_h = sb_ev.histogram(5.0, 10);
    HistogramResult {
        bins: pb_h.iter().map(|&(b, _)| b).collect(),
        pb: pb_h.iter().map(|&(_, f)| f).collect(),
        sb: sb_h.iter().map(|&(_, f)| f).collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 13 / Table 4 — AlignedBound vs SpillBound
// ---------------------------------------------------------------------

/// One row of the AB-vs-SB comparison (Fig. 13 + Table 4 share the runs).
#[derive(Debug, Clone)]
pub struct AlignedRow {
    /// Query name.
    pub query: String,
    /// ESS dimensionality.
    pub dims: usize,
    /// SpillBound empirical MSO.
    pub sb_mso: f64,
    /// AlignedBound empirical MSO.
    pub ab_mso: f64,
    /// The `2D+2` reference line of Fig. 13.
    pub linear_bound: f64,
    /// Max part-replacement penalty AB paid (Table 4).
    pub ab_max_penalty: f64,
}

/// Fig. 13 and Table 4: empirical MSO of SB vs AB with the `2D+2`
/// reference, plus the maximum replacement penalty AB incurred.
pub fn fig13_table4_aligned(scale: Scale, cache: Option<&CompileCache>) -> Vec<AlignedRow> {
    BenchQuery::all()
        .iter()
        .map(|&bq| {
            let w = Workload::tpcds(bq).expect("suite query builds");
            let rt = runtime_for(&w, scale, cache);
            let sb_ev = eval_at_scale(&rt, &SpillBound::new(), scale);
            let ab = AlignedBound::new();
            let ab_ev = eval_at_scale(&rt, &ab, scale);
            AlignedRow {
                query: bq.name().to_string(),
                dims: rt.dims(),
                sb_mso: sb_ev.mso,
                ab_mso: ab_ev.mso,
                linear_bound: (2 * rt.dims() + 2) as f64,
                ab_max_penalty: ab.max_part_penalty_seen(&rt),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2 — cost of enforcing contour alignment
// ---------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct AlignmentRow {
    /// Query name.
    pub query: String,
    /// % contours natively aligned.
    pub original_pct: f64,
    /// % aligned with replacement penalty ≤ 1.2.
    pub pct_1_2: f64,
    /// % aligned with replacement penalty ≤ 1.5.
    pub pct_1_5: f64,
    /// % aligned with replacement penalty ≤ 2.0.
    pub pct_2_0: f64,
    /// Minimum penalty making all contours aligned.
    pub max_penalty: f64,
}

/// Table 2: percentage of aligned contours at increasing replacement
/// penalty thresholds, for the paper's six featured queries.
pub fn table2_alignment(scale: Scale, cache: Option<&CompileCache>) -> Vec<AlignmentRow> {
    [
        BenchQuery::Q96_3D,
        BenchQuery::Q7_4D,
        BenchQuery::Q26_4D,
        BenchQuery::Q91_4D,
        BenchQuery::Q29_5D,
        BenchQuery::Q84_5D,
    ]
    .iter()
    .map(|&bq| {
        let w = Workload::tpcds(bq).expect("suite query builds");
        let rt = runtime_for(&w, scale, cache);
        let stats = alignment_stats(&rt);
        AlignmentRow {
            query: bq.name().to_string(),
            original_pct: stats.pct_within(1.0),
            pct_1_2: stats.pct_within(1.2),
            pct_1_5: stats.pct_within(1.5),
            pct_2_0: stats.pct_within(2.0),
            max_penalty: stats.max_penalty(),
        }
    })
    .collect()
}

// ---------------------------------------------------------------------
// Table 3 / §6.3 — wall-clock drill-down on 4D_Q91
// ---------------------------------------------------------------------

/// The wall-clock experiment result (§6.3): simulated seconds for the
/// oracle, the native optimizer, SB and AB on one 4D_Q91 instance, plus
/// SB's full drill-down trace.
#[derive(Debug, Clone)]
pub struct WallClockResult {
    /// Oracle (optimal-plan) seconds — calibrated to the paper's 44 s.
    pub oracle_secs: f64,
    /// Native optimizer seconds.
    pub native_secs: f64,
    /// SpillBound seconds.
    pub sb_secs: f64,
    /// AlignedBound seconds.
    pub ab_secs: f64,
    /// SB sub-optimality.
    pub sb_subopt: f64,
    /// AB sub-optimality.
    pub ab_subopt: f64,
    /// Native sub-optimality.
    pub native_subopt: f64,
    /// Number of SB plan executions (partial + final).
    pub sb_executions: usize,
    /// Number of AB plan executions.
    pub ab_executions: usize,
    /// Rendered SB drill-down (Table 3).
    pub sb_trace: String,
}

/// Table 3 + §6.3: simulated wall-clock comparison on 4D_Q91. Cost units
/// are mapped to seconds by anchoring the oracle execution at 44 s, the
/// paper's measured optimal time.
pub fn table3_wall_clock(scale: Scale, cache: Option<&CompileCache>) -> WallClockResult {
    let w = Workload::tpcds(BenchQuery::Q91_4D).expect("suite query builds");
    let rt = runtime_for(&w, scale, cache);
    let grid = rt.grid();
    // a challenging instance in the upper-middle region of the ESS
    let coords: Vec<usize> = (0..grid.dims()).map(|d| grid.res(d) * 3 / 4).collect();
    let qa = grid.index(&coords);
    let oracle = rt.oracle_cost(qa);
    let secs_per_cost = 44.0 / oracle;

    let native = NativeOptimizer.discover(&rt, qa);
    let sb = SpillBound::with_refined_bounds().discover(&rt, qa);
    let ab = AlignedBound::new().discover(&rt, qa);

    WallClockResult {
        oracle_secs: 44.0,
        native_secs: native.total_cost * secs_per_cost,
        sb_secs: sb.total_cost * secs_per_cost,
        ab_secs: ab.total_cost * secs_per_cost,
        sb_subopt: sb.subopt(),
        ab_subopt: ab.subopt(),
        native_subopt: native.subopt(),
        sb_executions: sb.num_executions(),
        ab_executions: ab.num_executions(),
        sb_trace: sb.render(),
    }
}

// ---------------------------------------------------------------------
// §6.5 — JOB Q1a
// ---------------------------------------------------------------------

/// The JOB Q1a results (§6.5).
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Native MSO with estimation errors over the whole ESS.
    pub native_mso: f64,
    /// SpillBound empirical MSO.
    pub sb_mso: f64,
    /// AlignedBound empirical MSO.
    pub ab_mso: f64,
}

/// §6.5: JOB Q1a — the native optimizer's MSO collapses from thousands to
/// around `2D+2` under SB/AB.
pub fn job_q1a(scale: Scale, cache: Option<&CompileCache>) -> JobResult {
    let w = Workload::job_q1a().expect("JOB Q1a builds");
    let rt = runtime_for(&w, scale, cache);
    JobResult {
        native_mso: native_mso_worst_estimate(&rt),
        sb_mso: eval_at_scale(&rt, &SpillBound::new(), scale).mso,
        ab_mso: eval_at_scale(&rt, &AlignedBound::new(), scale).mso,
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// One row of the contour cost-ratio ablation (§4.2 remark).
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Geometric contour ratio.
    pub ratio: f64,
    /// Number of contours induced.
    pub bands: usize,
    /// SB empirical MSO at this ratio.
    pub sb_mso: f64,
}

/// Ablation: SpillBound's empirical MSO as the contour cost ratio varies
/// (the paper notes doubling is not quite ideal — e.g. 1.8 gives 9.9
/// instead of 10 in 2D).
pub fn ablation_cost_ratio(scale: Scale, cache: Option<&CompileCache>) -> Vec<RatioRow> {
    let w = Workload::q91(2).expect("Q91 builds");
    let mut cfg = scale.ess_config(2);
    [1.5, 1.8, 2.0, 2.5, 3.0]
        .iter()
        .map(|&ratio| {
            cfg.contour_ratio = ratio;
            let rt = w.runtime_cached(cfg, cache).expect("ESS compiles");
            let ev = eval_at_scale(&rt, &SpillBound::new(), scale);
            RatioRow { ratio, bands: rt.num_bands(), sb_mso: ev.mso }
        })
        .collect()
}

/// One row of the anorexic-reduction ablation.
#[derive(Debug, Clone)]
pub struct AnorexicRow {
    /// Swallowing threshold λ.
    pub lambda: f64,
    /// ρ (max contour density) after reduction.
    pub rho: usize,
    /// PB guarantee `4(1+λ)ρ`.
    pub pb_guarantee: f64,
    /// PB empirical MSO at this λ.
    pub pb_mso: f64,
}

/// Ablation: PlanBouquet's guarantee and empirical MSO as the anorexic
/// threshold λ varies (λ = 0 is the raw diagram).
pub fn ablation_anorexic(scale: Scale, cache: Option<&CompileCache>) -> Vec<AnorexicRow> {
    let w = Workload::tpcds(BenchQuery::Q96_3D).expect("suite query builds");
    let rt = runtime_for(&w, scale, cache);
    [0.0, 0.1, 0.2, 0.5, 1.0]
        .iter()
        .map(|&lambda| {
            let pb = if lambda <= 0.0 {
                PlanBouquet::new()
            } else {
                PlanBouquet::anorexic(&rt, lambda).expect("anorexic reduction")
            };
            let rho = pb.rho(&rt);
            let ev = eval_at_scale(&rt, &pb, scale);
            AnorexicRow { lambda, rho, pb_guarantee: pb_guarantee(rho, lambda), pb_mso: ev.mso }
        })
        .collect()
}

/// One row of the random-workload robustness sweep.
#[derive(Debug, Clone)]
pub struct RandomWorkloadRow {
    /// Workload seed.
    pub seed: u64,
    /// Join-graph shape.
    pub shape: String,
    /// Whether the query aggregates.
    pub grouped: bool,
    /// ESS dimensionality.
    pub dims: usize,
    /// SB empirical MSO.
    pub sb_mso: f64,
    /// The band-adjusted structural bound `2(D²+3D)`.
    pub bound: f64,
}

/// Robustness sweep over seeded random workloads: the structural guarantee
/// must hold on arbitrary schemas and join geometries, not just the curated
/// TPC-DS suite.
pub fn random_workload_sweep(
    scale: Scale,
    cache: Option<&CompileCache>,
    count: usize,
) -> Vec<RandomWorkloadRow> {
    use rqp_workloads::{synth_workload, Shape, SynthConfig};
    (0..count as u64)
        .map(|seed| {
            let shape = [Shape::Chain, Shape::Star, Shape::Branch][(seed % 3) as usize];
            let grouped = seed % 2 == 1;
            let dims = 2 + (seed % 2) as usize;
            let w = synth_workload(SynthConfig {
                relations: 4 + (seed % 2) as usize,
                epps: dims,
                shape,
                grouped,
                seed,
            })
            .expect("generated workload builds");
            let rt = runtime_for(&w, scale, cache);
            let ev = eval_at_scale(&rt, &SpillBound::new(), scale);
            RandomWorkloadRow {
                seed,
                shape: format!("{shape:?}"),
                grouped,
                dims,
                sb_mso: ev.mso,
                bound: 2.0 * sb_guarantee(dims),
            }
        })
        .collect()
}

/// One row of the heuristic-baseline comparison (§8).
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Query name.
    pub query: String,
    /// ESS dimensionality.
    pub dims: usize,
    /// Mid-query reoptimization (POP/Rio-class) empirical MSO.
    pub reopt_mso: f64,
    /// ReOpt ASO.
    pub reopt_aso: f64,
    /// SpillBound empirical MSO.
    pub sb_mso: f64,
    /// SpillBound ASO.
    pub sb_aso: f64,
    /// SB's structural guarantee (ReOpt has none).
    pub sb_guarantee: f64,
}

/// §8 comparison: the POP/Rio-style mid-query reoptimization heuristic vs
/// SpillBound. ReOpt is often decent on average but carries no MSO bound;
/// SB bounds the worst case structurally.
pub fn baselines_comparison(scale: Scale, cache: Option<&CompileCache>) -> Vec<BaselineRow> {
    [BenchQuery::Q15_3D, BenchQuery::Q96_3D, BenchQuery::Q91_4D, BenchQuery::Q19_5D]
        .iter()
        .map(|&bq| {
            let w = Workload::tpcds(bq).expect("suite query builds");
            let rt = runtime_for(&w, scale, cache);
            let reopt_ev = eval_at_scale(&rt, &rqp_core::ReOptimizer::default(), scale);
            let sb_ev = eval_at_scale(&rt, &SpillBound::new(), scale);
            BaselineRow {
                query: bq.name().to_string(),
                dims: rt.dims(),
                reopt_mso: reopt_ev.mso,
                reopt_aso: reopt_ev.aso,
                sb_mso: sb_ev.mso,
                sb_aso: sb_ev.aso,
                sb_guarantee: sb_guarantee(rt.dims()),
            }
        })
        .collect()
}

/// One row of the cost-model-error ablation (§7).
#[derive(Debug, Clone)]
pub struct CostErrorRow {
    /// Cost-model error factor δ.
    pub delta: f64,
    /// SB empirical MSO under the δ-perturbed engine.
    pub sb_mso: f64,
    /// The inflated guarantee `(1+δ)²(D²+3D)`.
    pub inflated_guarantee: f64,
}

/// Ablation (§7): SpillBound under a δ-perturbed execution engine — actual
/// costs deviate from the model by up to `(1+δ)` either way, budgets stay
/// model-based. The paper argues the guarantee inflates by at most
/// `(1+δ)²`; this experiment measures the empirical inflation
/// (δ = 0.3 is the realistic modelling error the paper cites).
pub fn ablation_cost_error(scale: Scale, cache: Option<&CompileCache>) -> Vec<CostErrorRow> {
    let w = Workload::q91(3).expect("Q91 builds");
    [0.0, 0.1, 0.3, 0.5, 1.0]
        .iter()
        .map(|&delta| {
            let mut rt = runtime_for(&w, scale, cache);
            rt.set_cost_error(delta);
            let ev = eval_at_scale(&rt, &SpillBound::new(), scale);
            CostErrorRow {
                delta,
                sb_mso: ev.mso,
                inflated_guarantee: (1.0 + delta) * (1.0 + delta) * sb_guarantee(rt.dims()),
            }
        })
        .collect()
}

/// One row of the grid-resolution ablation.
#[derive(Debug, Clone)]
pub struct ResolutionRow {
    /// Grid points per dimension.
    pub resolution: usize,
    /// SB empirical MSO.
    pub sb_mso: f64,
    /// AB empirical MSO.
    pub ab_mso: f64,
}

/// Ablation: stability of the empirical MSO under grid resolution
/// (validates that the discretization substitution preserves the paper's
/// comparisons).
pub fn ablation_resolution(scale: Scale, cache: Option<&CompileCache>) -> Vec<ResolutionRow> {
    let w = Workload::q91(2).expect("Q91 builds");
    let resolutions: &[usize] = match scale {
        Scale::Quick => &[8, 16, 24],
        Scale::Full => &[12, 24, 48, 64],
    };
    resolutions
        .iter()
        .map(|&resolution| {
            let mut cfg = scale.ess_config(2);
            cfg.resolution = resolution;
            let rt = w.runtime_cached(cfg, cache).expect("ESS compiles");
            ResolutionRow {
                resolution,
                sb_mso: evaluate(&rt, &SpillBound::new()).mso,
                ab_mso: evaluate(&rt, &AlignedBound::new()).mso,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Chaos — fault-injection sweep over every discovery algorithm
// ---------------------------------------------------------------------

/// The chaos experiment: sweep every discovery algorithm on 2D_Q91 over
/// seeded fault schedules (one per fault class plus a mixed storm) and
/// render the per-class outcome table. Returns the invariant-violation
/// message instead of a table if the supervised runtime breaks one of the
/// harness invariants — a sweep that *renders* is a sweep that passed.
pub fn chaos_sweep_experiment(scale: Scale, cache: Option<&CompileCache>) -> String {
    use rqp_chaos::{probe_cells, standard_schedules, sweep, ChaosReport, FaultPlan};

    let w = Workload::q91(2).expect("Q91 builds");
    let plan = FaultPlan::idle();
    let mut rt = w.runtime_cached(scale.ess_config(2), cache).expect("ESS compiles");
    rt.set_fault_injector(&plan);
    let cells = probe_cells(&rt);
    let rounds: u64 = match scale {
        Scale::Quick => 2,
        Scale::Full => 8,
    };
    let mut all = ChaosReport::default();
    for k in 0..rounds {
        let schedules = standard_schedules(0xC0FF_EE00 + k, 0.35);
        match sweep(&rt, &plan, &cells, &schedules) {
            Ok(mut r) => all.runs.append(&mut r.runs),
            Err(e) => return format!("CHAOS INVARIANT VIOLATED: {e}"),
        }
    }
    format!(
        "{}all invariants held (degraded charge factor {:.1}x per logical execution)\n",
        all.render(),
        rt.retry_policy().degraded_factor()
    )
}

// ---------------------------------------------------------------------

/// The serving experiment's output, split by determinism.
pub struct ServeOutput {
    /// The report's `stable_render()` and the check line: identical
    /// across runs.
    pub results: String,
    /// The report's wall-clock lines (`timing_render()`): they vary from
    /// run to run.
    pub timings: String,
}

/// The serving experiment: push a mixed multi-session workload through
/// the concurrent `rqp-serve` scheduler and report session-level MSO/ASO
/// over the shared POSP registry, plus throughput and latency
/// percentiles. Sessions repeating a fingerprint must ride the registry
/// (exactly one compile per distinct fingerprint); any violation is
/// rendered as a SERVE VIOLATION line instead of a check line.
pub fn serve_experiment(scale: Scale) -> ServeOutput {
    use rqp_serve::{serve_workload, ServeConfig};
    use rqp_workloads::parse_session_file;

    let (spec, distinct) = match scale {
        Scale::Quick => ("2D_Q91 sb x4\n2D_Q91 ab x4\n3D_Q15 sb x4\nJOB_Q1a sb x4\n", 3),
        Scale::Full => (
            "2D_Q91 sb x8\n2D_Q91 ab x8\n2D_Q91 pb x8\n3D_Q15 sb x8\n3D_Q15 ab x8\n\
             4D_Q91 sb x8\nJOB_Q1a sb x8\nJOB_Q1a ab x8\n",
            4,
        ),
    };
    let entries = parse_session_file(spec).expect("experiment session file parses");
    let total: usize = entries.iter().map(|e| e.count).sum();
    let config = ServeConfig { workers: 8, queue_cap: total, ..ServeConfig::default() };
    let report = match serve_workload(config, &entries) {
        Ok(r) => r,
        Err(e) => {
            return ServeOutput {
                results: format!("SERVE VIOLATION: {e}\n"),
                timings: String::new(),
            }
        }
    };
    let mut violations = Vec::new();
    if report.completed() != total as u64 {
        violations.push(format!("{} of {total} sessions completed", report.completed()));
    }
    if report.registry.compiles != distinct {
        violations.push(format!(
            "{} compiles for {distinct} distinct fingerprints",
            report.registry.compiles
        ));
    }
    if report.non_finite_subopts() > 0 {
        violations.push(format!("{} non-finite subopt(s)", report.non_finite_subopts()));
    }
    let check = if violations.is_empty() {
        "every session completed; one compile per fingerprint".to_string()
    } else {
        format!("SERVE VIOLATION: {}", violations.join("; "))
    };
    ServeOutput {
        results: format!("{}{check}\n", report.stable_render()),
        timings: report.timing_render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_experiment_shares_compiles_at_quick_scale() {
        let out = serve_experiment(Scale::Quick).results;
        assert!(out.contains("one compile per fingerprint"), "{out}");
        assert!(out.contains("MSO"), "{out}");
    }

    #[test]
    fn chaos_sweep_holds_its_invariants_at_quick_scale() {
        let out = chaos_sweep_experiment(Scale::Quick, None);
        assert!(out.contains("all invariants held"), "chaos sweep reported a violation:\n{out}");
        assert!(out.contains("storm"));
    }

    #[test]
    fn fig9_rows_cover_dimensionalities_two_to_six() {
        let rows = fig9_dimensionality(Scale::Quick, None);
        assert_eq!(rows.len(), 5);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.dims, i + 2);
            assert_eq!(r.sb_guarantee, sb_guarantee(r.dims));
            assert!(r.rho_red >= 1);
        }
        // SB guarantee grows quadratically; PB with ρ_red
        assert!(rows[4].sb_guarantee > rows[0].sb_guarantee);
    }

    #[test]
    fn fig7_trace_mentions_spills_and_completion() {
        let t = fig7_trace(Scale::Quick, None);
        assert!(t.contains("spill["), "trace should include spill executions:\n{t}");
        assert!(t.contains("done"), "trace should complete:\n{t}");
    }

    #[test]
    fn job_result_shows_the_collapse() {
        let r = job_q1a(Scale::Quick, None);
        assert!(
            r.native_mso > 10.0 * r.sb_mso,
            "native {} should dwarf SB {}",
            r.native_mso,
            r.sb_mso
        );
        assert!(r.sb_mso >= 1.0 && r.ab_mso >= 1.0);
    }

    #[test]
    fn cost_ratio_ablation_band_counts_decrease_with_ratio() {
        let rows = ablation_cost_ratio(Scale::Quick, None);
        for w in rows.windows(2) {
            assert!(w[0].bands >= w[1].bands);
            assert!(w[0].sb_mso >= 1.0);
        }
    }
}
