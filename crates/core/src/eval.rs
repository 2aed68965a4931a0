//! Exhaustive empirical evaluation: MSO_e, ASO and sub-optimality
//! distributions over the full ESS grid (§6.2.3–§6.2.5).
//!
//! "The assessment was accomplished by explicitly and exhaustively
//! considering each and every location in the ESS to be qa, and then
//! evaluating the sub-optimality incurred for this location."

use crate::runtime::RobustRuntime;
use crate::Discovery;
use rayon::prelude::*;
use rqp_ess::Cell;
use serde::Serialize;

/// Empirical evaluation of one algorithm over the full grid.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// Algorithm display name.
    pub name: String,
    /// Empirical maximum sub-optimality (Eq. 4).
    pub mso: f64,
    /// The grid cell where the maximum occurred.
    pub worst_cell: Cell,
    /// Average sub-optimality over all cells, uniform weighting (Eq. 8).
    pub aso: f64,
    /// Per-cell sub-optimalities in cell-index order (of the sampled cells
    /// only, for [`evaluate_sampled`]).
    pub subopts: Vec<f64>,
}

impl Evaluation {
    /// Histogram of sub-optimalities with the given bin width (Fig. 12 uses
    /// width 5). Returns `(bin lower edge, fraction of cells)` pairs; the
    /// final bin aggregates everything beyond `max_bins` bins.
    pub fn histogram(&self, bin_width: f64, max_bins: usize) -> Vec<(f64, f64)> {
        let mut counts = vec![0usize; max_bins];
        for &s in &self.subopts {
            let bin = ((s / bin_width).floor() as usize).min(max_bins - 1);
            counts[bin] += 1;
        }
        let n = self.subopts.len() as f64;
        counts.into_iter().enumerate().map(|(i, c)| (i as f64 * bin_width, c as f64 / n)).collect()
    }

    /// Fraction of cells with sub-optimality at most `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        let n = self.subopts.iter().filter(|&&s| s <= threshold).count();
        n as f64 / self.subopts.len() as f64
    }
}

/// Evaluate an algorithm exhaustively over every grid cell, in parallel.
pub fn evaluate(rt: &RobustRuntime<'_>, algo: &dyn Discovery) -> Evaluation {
    let subopts: Vec<f64> =
        rt.grid().cells().into_par_iter().map(|qa| algo.discover(rt, qa).subopt()).collect();
    summarize(algo.name(), subopts, 1)
}

/// Evaluate over a deterministic subsample of cells (every `stride`-th
/// cell) — used by the high-dimensional benches where the full grid is
/// large.
pub fn evaluate_sampled(rt: &RobustRuntime<'_>, algo: &dyn Discovery, stride: usize) -> Evaluation {
    let stride = stride.max(1);
    let cells: Vec<Cell> = rt.grid().cells().step_by(stride).collect();
    let subopts: Vec<f64> =
        cells.into_par_iter().map(|qa| algo.discover(rt, qa).subopt()).collect();
    summarize(algo.name(), subopts, stride)
}

/// Summarize sub-optimalities measured at every `stride`-th grid cell.
fn summarize(name: &str, subopts: Vec<f64>, stride: usize) -> Evaluation {
    let (mut mso, mut worst) = (0.0f64, 0usize);
    let mut sum = 0.0f64;
    for (i, &s) in subopts.iter().enumerate() {
        sum += s;
        if s > mso {
            mso = s;
            worst = i;
        }
    }
    let aso = sum / subopts.len() as f64;
    crate::obs::record_evaluation(name, mso, aso, subopts.len());
    Evaluation { name: name.to_string(), mso, worst_cell: worst * stride, aso, subopts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::PlanBouquet;
    use crate::spillbound::SpillBound;
    use crate::test_support::{example_2d, runtime};

    #[test]
    fn mso_bounds_aso_and_every_cell() {
        let rt = runtime(example_2d(), 10);
        let sb = SpillBound::new();
        let ev = evaluate(&rt, &sb);
        assert_eq!(ev.subopts.len(), rt.grid().num_cells());
        assert!(ev.aso <= ev.mso);
        assert!(ev.aso >= 1.0 - 1e-9);
        assert!((ev.subopts[ev.worst_cell] - ev.mso).abs() < 1e-12);
        assert!(ev.subopts.iter().all(|&s| s <= ev.mso + 1e-12));
    }

    #[test]
    fn histogram_sums_to_one() {
        let rt = runtime(example_2d(), 10);
        let ev = evaluate(&rt, &PlanBouquet::new());
        let h = ev.histogram(5.0, 10);
        let total: f64 = h.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(h.len(), 10);
        assert_eq!(h[0].0, 0.0);
        assert_eq!(h[1].0, 5.0);
    }

    #[test]
    fn fraction_below_is_monotone() {
        let rt = runtime(example_2d(), 10);
        let ev = evaluate(&rt, &SpillBound::new());
        let f5 = ev.fraction_below(5.0);
        let f10 = ev.fraction_below(10.0);
        assert!(f5 <= f10);
        assert!(ev.fraction_below(ev.mso + 1.0) == 1.0);
    }

    #[test]
    fn sampled_evaluation_covers_a_subset() {
        let rt = runtime(example_2d(), 10);
        let full = evaluate(&rt, &SpillBound::new());
        let sampled = evaluate_sampled(&rt, &SpillBound::new(), 7);
        assert!(sampled.subopts.len() < full.subopts.len());
        assert!(sampled.mso <= full.mso + 1e-9);
        // the worst cell is a grid cell, not an index into the sample
        assert_eq!(full.subopts[sampled.worst_cell].to_bits(), sampled.mso.to_bits());
    }
}
