//! Discovery traces: the full record of a robust algorithm's budgeted
//! executions for one query instance (the basis of Fig. 7's Manhattan
//! profile and Table 3's drill-down).

use rqp_catalog::EppId;
use rqp_ess::{Cell, PlanId};
use rqp_qplan::PlanNode;
use std::sync::Arc;

/// The plan used by one execution: either a POSP plan from the registry or
/// a bespoke replacement plan (AlignedBound's induced-alignment
/// substitutes).
#[derive(Debug, Clone)]
pub enum PlanRef {
    /// A registered POSP plan.
    Posp(PlanId),
    /// A replacement plan synthesized outside the POSP.
    Bespoke(Arc<PlanNode>),
}

impl std::fmt::Display for PlanRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanRef::Posp(id) => write!(f, "{id}"),
            PlanRef::Bespoke(_) => write!(f, "P*"),
        }
    }
}

/// How a plan was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Complete execution under a cost budget.
    Full,
    /// Spill-mode execution targeting the given epp (§3.1.2).
    Spill(EppId),
}

/// One budgeted execution.
#[derive(Debug, Clone)]
pub struct Step {
    /// Contour band index the execution belonged to.
    pub band: usize,
    /// The executed plan.
    pub plan: PlanRef,
    /// Execution mode.
    pub mode: ExecMode,
    /// Assigned cost budget.
    pub budget: f64,
    /// Cost actually charged (= budget if it expired, the true cost if the
    /// execution completed earlier).
    pub spent: f64,
    /// Whether the execution (full plan or spilled subtree) completed.
    pub completed: bool,
    /// Selectivity knowledge gained: `(dim, value, exact)`.
    pub learned: Option<(EppId, f64, bool)>,
    /// Which attempt of a supervised execution this was: 0 for the first
    /// try, counting up across retries of the same logical execution.
    pub attempt: u32,
    /// The execution died from an injected fault. Its `spent` is sunk work
    /// (charged against the MSO accounting like any other expenditure) and
    /// its `learned` is always `None`.
    pub faulted: bool,
}

/// The complete discovery record for one query instance.
#[derive(Debug, Clone)]
pub struct DiscoveryTrace {
    /// Name of the algorithm that produced the trace.
    pub algo: &'static str,
    /// The actual location `qa` (grid cell).
    pub qa: Cell,
    /// All executions, in order.
    pub steps: Vec<Step>,
    /// Total cost charged across all executions.
    pub total_cost: f64,
    /// The oracle cost `Cost(P_qa, qa)`.
    pub oracle_cost: f64,
    /// Structured failure: `Some(reason)` when the algorithm could not
    /// produce a final result (e.g. the native optimizer's only plan kept
    /// faulting). The cost accounting in `steps`/`total_cost` stays valid
    /// even for failed runs — wasted work is never hidden.
    pub failure: Option<String>,
    /// Structural fingerprints of plans quarantined during this run (after
    /// exceeding the supervisor's failure threshold).
    pub quarantined: Vec<u64>,
}

impl DiscoveryTrace {
    /// The instance sub-optimality `SubOpt(Seq_qa, qa)` (Eq. 3).
    ///
    /// A valid oracle cost is strictly positive (PCM cost surfaces are
    /// bounded away from zero). If `oracle_cost <= 0` (or is NaN) the ratio
    /// is meaningless, so the documented sentinel `f64::INFINITY` is
    /// returned — a corrupt trace reads as "unboundedly sub-optimal" rather
    /// than silently producing `NaN` or a negative ratio that would skew
    /// MSO/ASO aggregation.
    pub fn subopt(&self) -> f64 {
        if self.oracle_cost.is_nan() || self.oracle_cost <= 0.0 {
            return f64::INFINITY;
        }
        self.total_cost / self.oracle_cost
    }

    /// Number of executions.
    pub fn num_executions(&self) -> usize {
        self.steps.len()
    }

    /// Number of supervised retries (steps beyond each first attempt).
    pub fn retries(&self) -> usize {
        self.steps.iter().filter(|s| s.attempt > 0).count()
    }

    /// Number of executions that died from an injected fault.
    pub fn faulted_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.faulted).count()
    }

    /// Whether the run ended in a structured failure.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Render the trace as a compact table (one row per execution), in the
    /// spirit of Table 3.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} at cell {}: subopt {:.2} ({} executions)",
            self.algo,
            self.qa,
            self.subopt(),
            self.steps.len()
        );
        if let Some(reason) = &self.failure {
            let _ = writeln!(s, "  FAILED: {reason}");
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(s, "  quarantined {} plan(s)", self.quarantined.len());
        }
        for st in &self.steps {
            let mode = match st.mode {
                ExecMode::Full => format!("{}", st.plan),
                ExecMode::Spill(e) => format!("spill[{}]({})", e.0, st.plan),
            };
            let learned = match st.learned {
                Some((e, v, true)) => format!("  -> dim{} = {v:.3e} (exact)", e.0),
                Some((e, v, false)) => format!("  -> dim{} > {v:.3e}", e.0),
                None => String::new(),
            };
            let status = if st.faulted {
                "FLT "
            } else if st.completed {
                "done"
            } else {
                "cut "
            };
            let retry =
                if st.attempt > 0 { format!("  (retry {})", st.attempt) } else { String::new() };
            let _ = writeln!(
                s,
                "  band {:>2}  {:<18} budget {:>12.3e}  spent {:>12.3e}  {}{}{}",
                st.band, mode, st.budget, st.spent, status, learned, retry
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(band: usize, spent: f64, completed: bool) -> Step {
        Step {
            band,
            plan: PlanRef::Posp(PlanId(0)),
            mode: ExecMode::Full,
            budget: spent,
            spent,
            completed,
            learned: None,
            attempt: 0,
            faulted: false,
        }
    }

    #[test]
    fn subopt_guards_against_nonpositive_oracle_cost() {
        let mut t = DiscoveryTrace {
            algo: "test",
            qa: 0,
            steps: vec![step(0, 5.0, true)],
            total_cost: 5.0,
            oracle_cost: 0.0,
            failure: None,
            quarantined: vec![],
        };
        assert_eq!(t.subopt(), f64::INFINITY, "zero oracle cost → sentinel");
        t.oracle_cost = -3.0;
        assert_eq!(t.subopt(), f64::INFINITY, "negative oracle cost → sentinel");
        t.oracle_cost = f64::NAN;
        assert_eq!(t.subopt(), f64::INFINITY, "NaN oracle cost → sentinel");
        t.oracle_cost = 5.0;
        assert_eq!(t.subopt(), 1.0, "valid oracle cost unaffected");
    }

    #[test]
    fn subopt_is_total_over_oracle() {
        let t = DiscoveryTrace {
            algo: "test",
            qa: 3,
            steps: vec![step(0, 10.0, false), step(1, 30.0, true)],
            total_cost: 40.0,
            oracle_cost: 20.0,
            failure: None,
            quarantined: vec![],
        };
        assert_eq!(t.subopt(), 2.0);
        assert_eq!(t.num_executions(), 2);
    }

    #[test]
    fn render_mentions_mode_and_learning() {
        let t = DiscoveryTrace {
            algo: "SB",
            qa: 0,
            steps: vec![Step {
                band: 2,
                plan: PlanRef::Posp(PlanId(4)),
                mode: ExecMode::Spill(EppId(1)),
                budget: 100.0,
                spent: 100.0,
                completed: false,
                learned: Some((EppId(1), 0.25, false)),
                attempt: 0,
                faulted: false,
            }],
            total_cost: 100.0,
            oracle_cost: 50.0,
            failure: None,
            quarantined: vec![],
        };
        let r = t.render();
        assert!(r.contains("spill[1](P5)"));
        assert!(r.contains("dim1 > 2.500e-1"));
        assert!(r.contains("band  2"));
    }
}

#[cfg(test)]
mod bespoke_tests {
    use super::*;
    use rqp_catalog::RelId;
    use rqp_qplan::PlanNode;

    #[test]
    fn bespoke_plans_render_as_p_star() {
        let plan = PlanRef::Bespoke(Arc::new(PlanNode::SeqScan { rel: RelId(0), filters: vec![] }));
        assert_eq!(plan.to_string(), "P*");
    }

    #[test]
    fn infinite_budgets_render_without_panicking() {
        let t = DiscoveryTrace {
            algo: "ReOpt",
            qa: 1,
            steps: vec![Step {
                band: 0,
                plan: PlanRef::Bespoke(Arc::new(PlanNode::SeqScan {
                    rel: RelId(0),
                    filters: vec![],
                })),
                mode: ExecMode::Full,
                budget: f64::INFINITY,
                spent: 7.0,
                completed: true,
                learned: None,
                attempt: 0,
                faulted: false,
            }],
            total_cost: 7.0,
            oracle_cost: 7.0,
            failure: None,
            quarantined: vec![],
        };
        let r = t.render();
        assert!(r.contains("P*"));
        assert!(r.contains("inf"));
        assert_eq!(t.subopt(), 1.0);
    }
}
