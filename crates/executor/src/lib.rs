#![warn(missing_docs)]
// Unit tests assert exact float results on purpose: exact spill learning
// returns the true selectivity itself, an expired execution is charged its
// budget exactly, and replays must be bit-identical.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp)
)]

//! Simulated budgeted and spill-mode plan execution with run-time
//! selectivity monitoring.
//!
//! The paper's prototype modifies PostgreSQL to support (1) time-limited
//! execution of a chosen plan, (2) *spilling* — executing only the subtree
//! rooted at a chosen epp node, discarding its output — and (3) monitoring
//! of operator selectivities during execution (§6.1). This crate provides
//! the cost-model-driven simulation of those three facilities:
//!
//! * a budgeted execution *completes* iff the plan's true cost at the actual
//!   location `qa` is within the budget (costs are the paper's currency: its
//!   MSO evaluation is entirely in optimizer cost units);
//! * a spill-mode execution of epp `e_j` either completes within budget —
//!   the exact selectivity `qa.j` is learnt — or exhausts the budget having
//!   observed the largest selectivity consistent with the work done: the
//!   maximal `x` with `Cost(subtree, x) ≤ budget`, which is strictly below
//!   `qa.j`. This realizes the guarantee of Lemma 3.1: the execution of plan
//!   `P` with budget `Cost(P, q)` either learns the exact selectivity of
//!   `e_j` or learns `qa.j > q.j`.

pub mod data;
pub mod fault;
pub mod obs;
pub mod rowexec;

pub use data::{DataSet, Table};
pub use fault::{FaultInjector, InjectedFault, Seam};
pub use obs::register_metrics;
pub use rowexec::{QuotaExhausted, RowExecutor, Rows, Schema, SpillObservation};

use rqp_catalog::{Catalog, EppId, Query, SelVector};
use rqp_qplan::cost::{cost_cmp, CostModel, PlanCtx};
use rqp_qplan::ops::PlanNode;
use rqp_qplan::pipeline::spill_subtree;

/// Result of a full (non-spill) budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecOutcome {
    /// The plan finished; `cost` is the work actually expended (≤ budget).
    Completed {
        /// Actual cost expended.
        cost: f64,
    },
    /// The budget expired before completion; the full budget was expended
    /// and all partial results are discarded.
    BudgetExhausted {
        /// The expended budget.
        spent: f64,
    },
    /// The execution died from an injected (or substrate) fault before
    /// either finishing or exhausting its budget. The work sunk before the
    /// failure is still charged — wasted work is never hidden from the MSO
    /// accounting — but nothing was learnt and no result exists.
    Failed {
        /// Work sunk before the failure.
        spent: f64,
    },
}

impl ExecOutcome {
    /// Cost charged to the discovery process for this execution.
    pub fn spent(&self) -> f64 {
        match *self {
            ExecOutcome::Completed { cost } => cost,
            ExecOutcome::BudgetExhausted { spent } | ExecOutcome::Failed { spent } => spent,
        }
    }

    /// Whether the execution completed.
    pub fn completed(&self) -> bool {
        matches!(self, ExecOutcome::Completed { .. })
    }

    /// Whether the execution died from a fault (neither completion nor a
    /// legitimate budget expiry).
    pub fn failed(&self) -> bool {
        matches!(self, ExecOutcome::Failed { .. })
    }
}

/// What a spill-mode execution learnt about the spilled epp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Learned {
    /// The subtree completed: the exact selectivity.
    Exact(f64),
    /// Budget expired: the selectivity is strictly greater than this bound.
    LowerBound(f64),
}

impl Learned {
    /// The selectivity value carried (exact or bound).
    pub fn value(&self) -> f64 {
        match *self {
            Learned::Exact(v) | Learned::LowerBound(v) => v,
        }
    }

    /// Whether the selectivity was learnt exactly.
    pub fn is_exact(&self) -> bool {
        matches!(self, Learned::Exact(_))
    }
}

/// Result of a spill-mode execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillOutcome {
    /// Selectivity knowledge gained for the spilled epp.
    pub learned: Learned,
    /// Cost charged to the discovery process.
    pub spent: f64,
    /// The execution died from an injected fault; `learned` carries no
    /// usable knowledge (it may even be NaN for a corrupted observation)
    /// and must not enter the discovery state. `spent` is still real,
    /// charged work.
    pub failed: bool,
}

/// The simulated execution engine, bound to one query.
#[derive(Clone, Copy)]
pub struct Engine<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    model: CostModel,
    /// Cost-model error factor δ (§7): the *actual* execution cost of a
    /// plan deviates from the model by a deterministic per-plan factor in
    /// `[1/(1+δ), 1+δ]`, while budgets are still set from the unperturbed
    /// model. δ = 0 is the perfect-cost-model assumption.
    delta: f64,
    /// Optional fault source consulted once per execution (chaos testing).
    injector: Option<&'a dyn fault::FaultInjector>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("query", &self.query.name)
            .field("delta", &self.delta)
            .field("injector", &self.injector.map(|_| "dyn FaultInjector"))
            .finish()
    }
}

impl<'a> Engine<'a> {
    /// Create an engine with a perfect cost model (δ = 0).
    pub fn new(catalog: &'a Catalog, query: &'a Query, model: CostModel) -> Self {
        Engine { catalog, query, model, delta: 0.0, injector: None }
    }

    /// Create an engine whose actual execution costs deviate from the
    /// model by up to a `(1+delta)` factor either way (§7's bounded
    /// cost-modelling error; the MSO guarantees then inflate by at most
    /// `(1+delta)²`).
    pub fn with_cost_error(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        delta: f64,
    ) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        Engine { catalog, query, model, delta, injector: None }
    }

    /// This engine with a fault injector attached: every subsequent
    /// execution consults `injector` once and applies whatever fault it
    /// returns.
    pub fn with_injector(self, injector: &'a dyn fault::FaultInjector) -> Self {
        Engine { injector: Some(injector), ..self }
    }

    /// This engine with any fault injector detached — the clean engine the
    /// supervision layer uses for last-resort executions that must not be
    /// struck again.
    pub fn without_injector(self) -> Self {
        Engine { injector: None, ..self }
    }

    /// The attached fault injector, if any (so a caller rebuilding the
    /// engine — e.g. to change δ — can carry the injector over).
    pub fn injector(&self) -> Option<&'a dyn fault::FaultInjector> {
        self.injector
    }

    /// Ask the injector (if any) about the execution entering `seam`,
    /// accounting whatever it returns.
    fn draw_fault(&self, seam: fault::Seam) -> Option<fault::InjectedFault> {
        let f = self.injector?.inject(seam)?;
        obs::fault_injected(f.class());
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_FAULT_INJECTED)
                    .with("query", self.query.name.as_str())
                    .with("seam", seam.name())
                    .with("class", f.class()),
            );
        }
        Some(f)
    }

    /// The deterministic per-plan perturbation factor in
    /// `[1/(1+δ), 1+δ]`, derived from the plan's structural fingerprint so
    /// that re-executions of the same plan misbehave consistently.
    fn perturbation(&self, plan: &PlanNode) -> f64 {
        if self.delta <= 0.0 {
            return 1.0;
        }
        let fp = rqp_qplan::Fingerprint::of(plan).0;
        // map the fingerprint to [-1, 1], then to [1/(1+δ), (1+δ)]
        let t = (fp % 10_007) as f64 / 10_006.0 * 2.0 - 1.0;
        (1.0 + self.delta).powf(t)
    }

    /// Account one spill-mode execution (shared by the refined and coarse
    /// variants).
    fn record_spill(&self, epp: EppId, out: &SpillOutcome, budget: f64) {
        let m = obs::metrics();
        m.spill.inc();
        if out.failed {
            // no usable observation; already counted in `exec_failed`
        } else if out.learned.is_exact() {
            m.spill_exact.inc();
        } else {
            m.spill_bound.inc();
        }
        obs::spill_observation(epp.0);
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_SPILL_EXECUTION)
                    .with("query", self.query.name.as_str())
                    .with("epp", epp.0 as u64)
                    .with("budget", budget)
                    .with("exact", out.learned.is_exact())
                    .with("learned", out.learned.value())
                    .with("spent", out.spent)
                    .with("failed", out.failed),
            );
        }
    }

    /// True cost of running `plan` to completion at the actual location
    /// (including any cost-model error).
    pub fn true_cost(&self, plan: &PlanNode, qa: &SelVector) -> f64 {
        let ctx = PlanCtx::new(self.catalog, self.query, qa);
        self.model.cost(plan, &ctx) * self.perturbation(plan)
    }

    /// Execute `plan` with a cost budget at actual location `qa`.
    pub fn execute_budgeted(&self, plan: &PlanNode, qa: &SelVector, budget: f64) -> ExecOutcome {
        let m = obs::metrics();
        m.budgeted.inc();
        let cost = self.true_cost(plan, qa);
        // the work an uninterrupted run would sink: the true cost, capped
        // by the budget (infinite budgets cap nothing)
        let clean_spend = cost.min(budget);
        let outcome = match self.draw_fault(fault::Seam::Budgeted) {
            Some(fault::InjectedFault::Fail { spent_frac }) => {
                m.exec_failed.inc();
                ExecOutcome::Failed { spent: spent_frac * clean_spend }
            }
            Some(fault::InjectedFault::CorruptObservation) => {
                // the run finished but its completion status is garbage:
                // all the work is sunk and nothing can be trusted
                m.exec_failed.inc();
                ExecOutcome::Failed { spent: clean_spend }
            }
            Some(fault::InjectedFault::SpuriousExhaust) => {
                m.expired.inc();
                ExecOutcome::BudgetExhausted {
                    spent: if budget.is_finite() { budget } else { cost },
                }
            }
            Some(fault::InjectedFault::PerturbCost { factor }) => {
                let observed = cost * factor;
                if cost_cmp(observed, budget) != std::cmp::Ordering::Greater {
                    m.completed.inc();
                    ExecOutcome::Completed { cost: observed }
                } else {
                    m.expired.inc();
                    ExecOutcome::BudgetExhausted { spent: budget }
                }
            }
            None => {
                if cost_cmp(cost, budget) != std::cmp::Ordering::Greater {
                    m.completed.inc();
                    ExecOutcome::Completed { cost }
                } else {
                    m.expired.inc();
                    ExecOutcome::BudgetExhausted { spent: budget }
                }
            }
        };
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_BUDGETED_EXECUTION)
                    .with("query", self.query.name.as_str())
                    .with("budget", budget)
                    .with("true_cost", cost)
                    .with("completed", outcome.completed())
                    .with("failed", outcome.failed())
                    .with("spent", outcome.spent()),
            );
        }
        outcome
    }

    /// Execute `plan` in spill-mode on `epp` with a cost budget.
    ///
    /// `reference` supplies the selectivities of every dimension other than
    /// `epp` for costing the spilled subtree; the caller must have exact
    /// values there for all epps *upstream* of the spill node (guaranteed by
    /// the spill-node identification rules), and `qa` supplies the truth.
    ///
    /// Spilling on an epp the plan does not evaluate is a programmer error:
    /// debug builds assert, release builds conservatively charge the whole
    /// plan as the spilled subtree.
    pub fn execute_spill(
        &self,
        plan: &PlanNode,
        epp: EppId,
        reference: &SelVector,
        qa: &SelVector,
        budget: f64,
    ) -> SpillOutcome {
        let out = match self.draw_fault(fault::Seam::Spill) {
            Some(f) => {
                let clean = self.spill_refined(plan, epp, reference, qa, budget, 1.0);
                self.corrupt_spill(f, clean, budget, |factor| {
                    self.spill_refined(plan, epp, reference, qa, budget, factor)
                })
            }
            None => self.spill_refined(plan, epp, reference, qa, budget, 1.0),
        };
        self.record_spill(epp, &out, budget);
        out
    }

    /// Apply an injected fault to a spill-mode execution. Fault semantics
    /// are chosen so that no *unsound* knowledge can ever be produced: a
    /// failed or spuriously-cut execution reports the trivially-true
    /// minimum lower bound (nothing learnt) rather than a fabricated
    /// value, and a corrupted observation is flagged `failed` so callers
    /// discard it before it reaches the discovery state.
    fn corrupt_spill(
        &self,
        f: fault::InjectedFault,
        clean: SpillOutcome,
        budget: f64,
        rerun: impl Fn(f64) -> SpillOutcome,
    ) -> SpillOutcome {
        let nothing = Learned::LowerBound(rqp_catalog::Selectivity::MIN.value());
        let full_charge = if budget.is_finite() { budget } else { clean.spent };
        match f {
            fault::InjectedFault::Fail { spent_frac } => {
                self.spill_failed_metric();
                SpillOutcome { learned: nothing, spent: spent_frac * clean.spent, failed: true }
            }
            fault::InjectedFault::SpuriousExhaust => {
                // reported as a budget expiry with the partial observation
                // discarded: the full budget is charged, nothing is learnt
                SpillOutcome { learned: nothing, spent: full_charge, failed: false }
            }
            fault::InjectedFault::PerturbCost { factor } => rerun(factor),
            fault::InjectedFault::CorruptObservation => {
                self.spill_failed_metric();
                SpillOutcome {
                    learned: Learned::LowerBound(f64::NAN),
                    spent: full_charge,
                    failed: true,
                }
            }
        }
    }

    fn spill_failed_metric(&self) {
        obs::metrics().exec_failed.inc();
    }

    fn spill_refined(
        &self,
        plan: &PlanNode,
        epp: EppId,
        reference: &SelVector,
        qa: &SelVector,
        budget: f64,
        fault_factor: f64,
    ) -> SpillOutcome {
        let subtree = spill_subtree(plan, self.query, epp).unwrap_or_else(|| {
            debug_assert!(false, "plan does not evaluate epp {epp}");
            plan.clone()
        });
        let truth = qa.get(epp.0).value();
        let perturb = self.perturbation(&subtree) * fault_factor;

        // cost of the spilled subtree as a function of the epp selectivity
        let sub_cost = |x: f64| -> f64 {
            let mut loc = reference.clone();
            loc.set(epp.0, rqp_catalog::Selectivity::new(x));
            let ctx = PlanCtx::new(self.catalog, self.query, &loc);
            self.model.cost(&subtree, &ctx) * perturb
        };

        let at_truth = sub_cost(truth);
        if at_truth <= budget {
            return SpillOutcome { learned: Learned::Exact(truth), spent: at_truth, failed: false };
        }

        // Budget expired: the monitor observed progress equivalent to the
        // largest selectivity whose subtree cost fits the budget. sub_cost
        // is non-decreasing in x (PCM), so bisect.
        let lo0 = rqp_catalog::Selectivity::MIN.value();
        let mut lo = lo0;
        let mut hi = truth;
        if sub_cost(lo0) > budget {
            // not even the minimum fits: nothing new was learnt
            return SpillOutcome {
                learned: Learned::LowerBound(lo0),
                spent: budget,
                failed: false,
            };
        }
        for _ in 0..64 {
            let mid = (lo * hi).sqrt(); // log-scale bisection
            if sub_cost(mid) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        debug_assert!(lo < truth);
        SpillOutcome { learned: Learned::LowerBound(lo), spent: budget, failed: false }
    }

    /// Like [`Engine::execute_spill`] but without refining the lower bound
    /// on budget expiry: the bound reported is the reference location's own
    /// coordinate — exactly the guaranteed learning of Lemma 3.1(b)
    /// (`qa.j > q.j`) — which is all the discovery algorithms need. This
    /// skips the bisection and keeps exhaustive MSO evaluation cheap.
    pub fn execute_spill_coarse(
        &self,
        plan: &PlanNode,
        epp: EppId,
        reference: &SelVector,
        qa: &SelVector,
        budget: f64,
    ) -> SpillOutcome {
        let out = match self.draw_fault(fault::Seam::SpillCoarse) {
            Some(f) => {
                let clean = self.spill_coarse(plan, epp, reference, qa, budget, 1.0);
                self.corrupt_spill(f, clean, budget, |factor| {
                    self.spill_coarse(plan, epp, reference, qa, budget, factor)
                })
            }
            None => self.spill_coarse(plan, epp, reference, qa, budget, 1.0),
        };
        self.record_spill(epp, &out, budget);
        out
    }

    fn spill_coarse(
        &self,
        plan: &PlanNode,
        epp: EppId,
        reference: &SelVector,
        qa: &SelVector,
        budget: f64,
        fault_factor: f64,
    ) -> SpillOutcome {
        let subtree = spill_subtree(plan, self.query, epp).unwrap_or_else(|| {
            debug_assert!(false, "plan does not evaluate epp {epp}");
            plan.clone()
        });
        let truth = qa.get(epp.0).value();
        let perturb = self.perturbation(&subtree) * fault_factor;
        let mut loc = reference.clone();
        loc.set(epp.0, rqp_catalog::Selectivity::new(truth));
        let ctx = PlanCtx::new(self.catalog, self.query, &loc);
        let at_truth = self.model.cost(&subtree, &ctx) * perturb;
        if at_truth <= budget {
            return SpillOutcome { learned: Learned::Exact(truth), spent: at_truth, failed: false };
        }
        // guaranteed learning: qa's coordinate strictly exceeds the
        // reference coordinate, provided the reference itself fits the
        // budget (always true when the budget is the full plan's cost at
        // the reference location)
        let mut ref_loc = reference.clone();
        ref_loc.set(epp.0, reference.get(epp.0));
        let ref_ctx = PlanCtx::new(self.catalog, self.query, &ref_loc);
        let bound = if self.model.cost(&subtree, &ref_ctx) * perturb <= budget {
            reference.get(epp.0).value()
        } else {
            rqp_catalog::Selectivity::MIN.value()
        };
        SpillOutcome { learned: Learned::LowerBound(bound), spent: budget, failed: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;

    fn fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("part", 2_000_000)
                    .indexed_column("p_partkey", 2_000_000, 8)
                    .column("p_price", 50_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("lineitem", 60_000_000)
                    .indexed_column("l_partkey", 2_000_000, 8)
                    .indexed_column("l_orderkey", 15_000_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("orders", 15_000_000)
                    .indexed_column("o_orderkey", 15_000_000, 8)
                    .build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "EQ")
            .table("part")
            .table("lineitem")
            .table("orders")
            .epp_join("part", "p_partkey", "lineitem", "l_partkey")
            .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
            .filter("part", "p_price", 0.05)
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn budgeted_execution_completes_iff_cost_fits() {
        let (catalog, query) = fixture();
        let engine = Engine::new(&catalog, &query, CostModel::default());
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let qa = SelVector::from_values(&[1e-4, 1e-4]);
        let planned = opt.optimize(&qa);
        let cost = planned.cost;

        let ok = engine.execute_budgeted(&planned.plan, &qa, cost * 1.01);
        assert!(ok.completed());
        assert!((ok.spent() - cost).abs() < 1e-9 * cost);

        let fail = engine.execute_budgeted(&planned.plan, &qa, cost * 0.99);
        assert!(!fail.completed());
        assert!((fail.spent() - cost * 0.99).abs() < 1e-9 * cost);
    }

    #[test]
    fn spill_completes_and_learns_exact_when_budget_suffices() {
        let (catalog, query) = fixture();
        let engine = Engine::new(&catalog, &query, CostModel::default());
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let qa = SelVector::from_values(&[3e-5, 2e-3]);
        // budget from a hypothetical location dominating qa in dim 0
        let q = SelVector::from_values(&[1e-4, 2e-3]);
        let planned = opt.optimize(&q);
        let target = rqp_qplan::pipeline::spill_target(
            &planned.plan,
            &query,
            &[rqp_catalog::EppId(0), rqp_catalog::EppId(1)].into(),
        )
        .unwrap();
        let out = engine.execute_spill(&planned.plan, target, &q, &qa, planned.cost);
        // qa's coordinate on the spilled dim is below q's, so the spill
        // completes and learns it exactly (Lemma 3.1 case (a))
        if qa.get(target.0).value() <= q.get(target.0).value() {
            assert!(out.learned.is_exact());
            assert_eq!(out.learned.value(), qa.get(target.0).value());
            assert!(out.spent <= planned.cost);
        }
    }

    #[test]
    fn spill_lower_bound_never_overshoots_truth() {
        let (catalog, query) = fixture();
        let engine = Engine::new(&catalog, &query, CostModel::default());
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        // budget location has dim0 below the truth → cannot complete
        let q = SelVector::from_values(&[1e-6, 1e-3]);
        let qa = SelVector::from_values(&[1e-2, 1e-3]);
        let planned = opt.optimize(&q);
        let unlearnt: std::collections::BTreeSet<_> =
            [rqp_catalog::EppId(0), rqp_catalog::EppId(1)].into();
        let target = rqp_qplan::pipeline::spill_target(&planned.plan, &query, &unlearnt).unwrap();
        let out = engine.execute_spill(&planned.plan, target, &q, &qa, planned.cost);
        match out.learned {
            Learned::Exact(v) => assert_eq!(v, qa.get(target.0).value()),
            Learned::LowerBound(lb) => {
                assert!(lb < qa.get(target.0).value(), "bound {lb} overshot truth");
                assert!(
                    lb >= q.get(target.0).value() * 0.5,
                    "guaranteed learning should reach roughly the budget location; got {lb}"
                );
                assert_eq!(out.spent, planned.cost);
            }
        }
    }

    #[test]
    fn spill_with_tiny_budget_learns_nothing_but_charges_budget() {
        let (catalog, query) = fixture();
        let engine = Engine::new(&catalog, &query, CostModel::default());
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let q = SelVector::from_values(&[1e-6, 1e-6]);
        let qa = SelVector::from_values(&[0.5, 0.5]);
        let planned = opt.optimize(&q);
        let unlearnt: std::collections::BTreeSet<_> =
            [rqp_catalog::EppId(0), rqp_catalog::EppId(1)].into();
        let target = rqp_qplan::pipeline::spill_target(&planned.plan, &query, &unlearnt).unwrap();
        let out = engine.execute_spill(&planned.plan, target, &q, &qa, 1e-9);
        assert!(!out.learned.is_exact());
        assert_eq!(out.spent, 1e-9);
    }
}

#[cfg(test)]
mod coarse_vs_refined_tests {
    use super::*;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;

    fn fixture() -> (Catalog, Query) {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 3_000_000)
                    .indexed_column("k", 3_000_000, 8)
                    .column("v", 1_000, 4)
                    .build(),
            )
            .relation(
                RelationBuilder::new("b", 40_000_000).indexed_column("k", 3_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .filter("a", "v", 0.2)
            .build()
            .unwrap();
        (catalog, query)
    }

    #[test]
    fn coarse_and_refined_spills_agree_on_completion() {
        let (catalog, query) = fixture();
        let engine = Engine::new(&catalog, &query, CostModel::default());
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let unlearnt: std::collections::BTreeSet<_> = [EppId(0)].into();
        for (ref_sel, truth_sel) in [(1e-4, 1e-5), (1e-4, 1e-2), (0.3, 0.3)] {
            let reference = SelVector::from_values(&[ref_sel]);
            let qa = SelVector::from_values(&[truth_sel]);
            let planned = opt.optimize(&reference);
            let target =
                rqp_qplan::pipeline::spill_target(&planned.plan, &query, &unlearnt).unwrap();
            let refined =
                engine.execute_spill(&planned.plan, target, &reference, &qa, planned.cost);
            let coarse =
                engine.execute_spill_coarse(&planned.plan, target, &reference, &qa, planned.cost);
            assert_eq!(
                refined.learned.is_exact(),
                coarse.learned.is_exact(),
                "completion must not depend on bound refinement"
            );
            assert_eq!(refined.spent, coarse.spent);
            if !refined.learned.is_exact() {
                // the refined bound dominates the guaranteed (coarse) one
                assert!(
                    refined.learned.value() >= coarse.learned.value() * (1.0 - 1e-9),
                    "refined {} < coarse {}",
                    refined.learned.value(),
                    coarse.learned.value()
                );
            }
        }
    }

    #[test]
    fn perturbed_engine_is_deterministic_per_plan() {
        let (catalog, query) = fixture();
        let engine = Engine::with_cost_error(&catalog, &query, CostModel::default(), 0.3);
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let qa = SelVector::from_values(&[1e-3]);
        let planned = opt.optimize(&qa);
        let c1 = engine.true_cost(&planned.plan, &qa);
        let c2 = engine.true_cost(&planned.plan, &qa);
        assert_eq!(c1, c2, "same plan must misbehave identically");
        // the perturbation stays within the declared envelope
        let unperturbed =
            Engine::new(&catalog, &query, CostModel::default()).true_cost(&planned.plan, &qa);
        assert!(c1 <= unperturbed * 1.3 * (1.0 + 1e-12));
        assert!(c1 >= unperturbed / 1.3 * (1.0 - 1e-12));
    }
}
