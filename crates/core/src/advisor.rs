//! The execution-strategy advisor (§9 future work, §1.4.1 caveat).
//!
//! The paper is explicit that the bouquet algorithms "are not a substitute
//! for a conventional query optimizer … when small estimation errors are
//! expected, the native optimizer could be sufficient, but if larger errors
//! are anticipated, our algorithms are likely to be the preferred choice",
//! and lists "automated assistants for guiding users in deciding whether to
//! use the native query optimizer or our algorithms" as future work. This
//! module implements that assistant: given a bound on the anticipated
//! estimation error, it measures the native optimizer's worst case under
//! that error and compares it against SpillBound's measured worst case.

use crate::eval::evaluate_sampled;
use crate::runtime::RobustRuntime;
use crate::spillbound::SpillBound;
use rayon::prelude::*;
use rqp_ess::Cell;
use serde::Serialize;

/// The advisor's verdict for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Recommendation {
    /// Anticipated errors are benign: run the native optimizer.
    Native,
    /// Anticipated errors can hurt: run SpillBound (or AlignedBound).
    Robust,
}

/// The advisor's full report.
#[derive(Debug, Clone, Serialize)]
pub struct Advice {
    /// The verdict.
    pub recommendation: Recommendation,
    /// Worst native sub-optimality when every epp estimate is off by at
    /// most the given factor.
    pub native_worst: f64,
    /// SpillBound's measured worst case (sampled).
    pub sb_worst: f64,
    /// The anticipated error factor the analysis assumed.
    pub error_factor: f64,
}

/// Worst native sub-optimality under bounded estimation error: for each
/// actual location `qa`, the estimate `qe` may land anywhere within
/// `[qa_j / factor, qa_j · factor]` per dimension; the native engine then
/// runs `P_qe` at `qa`. The maximum is attained on the corners of the error
/// box (plan choice varies most at the extremes), so corners are what we
/// probe.
pub fn native_worst_under_error(rt: &RobustRuntime<'_>, factor: f64, stride: usize) -> f64 {
    assert!(factor >= 1.0, "error factor must be at least 1");
    let grid = rt.grid();
    let dims = grid.dims();
    let cells: Vec<Cell> = grid.cells().step_by(stride.max(1)).collect();
    cells
        .into_par_iter()
        .map(|qa| {
            let qa_loc = grid.location(qa);
            let oracle = rt.oracle_cost(qa);
            let mut worst: f64 = 1.0;
            // corners of the error box (2^D of them; D ≤ 6 ⇒ ≤ 64)
            for corner in 0u32..(1u32 << dims) {
                let mut qe = qa_loc.clone();
                for d in 0..dims {
                    let v = qa_loc.get(d).value();
                    let scaled = if (corner >> d) & 1 == 1 { v * factor } else { v / factor };
                    qe.set(d, rqp_catalog::Selectivity::new(scaled));
                }
                let planned = rt.optimizer.optimize(&qe);
                let cost = rt.optimizer.cost_of(&planned.plan, &qa_loc);
                worst = worst.max(cost / oracle);
            }
            worst
        })
        .reduce(|| 1.0, f64::max)
}

/// Advise whether to run the query natively or robustly, anticipating epp
/// estimation errors of up to `error_factor` (×/÷) per dimension.
pub fn advise(rt: &RobustRuntime<'_>, error_factor: f64) -> Advice {
    let stride = (rt.grid().num_cells() / 2_000).max(1);
    let native_worst = native_worst_under_error(rt, error_factor, stride);
    let sb_worst = evaluate_sampled(rt, &SpillBound::new(), stride).mso;
    let recommendation =
        if native_worst <= sb_worst { Recommendation::Native } else { Recommendation::Robust };
    Advice { recommendation, native_worst, sb_worst, error_factor }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn tiny_errors_favour_the_native_optimizer() {
        let rt = runtime(example_2d(), 10);
        let advice = advise(&rt, 1.0);
        // with *no* estimation error the native engine is optimal
        assert!(advice.native_worst <= 1.0 + 1e-9);
        assert_eq!(advice.recommendation, Recommendation::Native);
    }

    #[test]
    fn large_errors_favour_the_robust_algorithms() {
        let rt = runtime(example_2d(), 10);
        let advice = advise(&rt, 1e5);
        assert!(
            advice.native_worst > advice.sb_worst,
            "native {} should exceed SB {} under huge errors",
            advice.native_worst,
            advice.sb_worst
        );
        assert_eq!(advice.recommendation, Recommendation::Robust);
    }

    #[test]
    fn native_worst_grows_with_the_error_factor() {
        let rt = runtime(example_2d(), 10);
        let w1 = native_worst_under_error(&rt, 1.0, 3);
        let w2 = native_worst_under_error(&rt, 100.0, 3);
        let w3 = native_worst_under_error(&rt, 1e4, 3);
        assert!(w1 <= w2 + 1e-9);
        assert!(w2 <= w3 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unit_factor_rejected() {
        let rt = runtime(example_2d(), 10);
        native_worst_under_error(&rt, 0.5, 1);
    }
}
