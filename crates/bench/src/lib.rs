// Bench-harness exemption: experiment drivers abort loudly on setup
// failure by design (rqp-lint likewise exempts crates/bench).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§6), run by the `reproduce` binary.
//!
//! Every function returns structured rows and can run at two scales:
//! [`Scale::Quick`] (coarse grids; its output is the committed golden
//! `golden/quick.txt`) and [`Scale::Full`] (the DESIGN.md resolution
//! schedule, used by `reproduce --full` to regenerate EXPERIMENTS.md).

pub mod experiments;
pub mod obs;
pub mod render;

pub use experiments::*;
pub use obs::{register_all_metrics, ObsOptions};
pub use render::*;

/// Every experiment name `reproduce` accepts, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "table2",
    "table3",
    "table4",
    "job",
    "ratio",
    "anorexic",
    "baselines",
    "random",
    "cost_error",
    "resolution",
    "chaos",
    "serve",
];

use rqp_core::RobustRuntime;
use rqp_ess::{CompileCache, EssConfig};
use rqp_workloads::Workload;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Coarse grids and sampled evaluation — seconds per experiment. The
    /// default `reproduce` scale, pinned by `golden/quick.txt`.
    Quick,
    /// The DESIGN.md resolution schedule — minutes for the full suite.
    Full,
}

impl Scale {
    /// ESS configuration for a query of the given dimensionality.
    pub fn ess_config(self, dims: usize) -> EssConfig {
        match self {
            Scale::Quick => EssConfig::coarse(dims),
            Scale::Full => EssConfig::for_dims(dims),
        }
    }

    /// Evaluation stride: sample every `stride`-th grid cell when the grid
    /// is large (exhaustive when 1).
    pub fn eval_stride(self, num_cells: usize) -> usize {
        let target = match self {
            Scale::Quick => 4_000,
            Scale::Full => 40_000,
        };
        (num_cells / target).max(1)
    }
}

/// Compile a workload's runtime at the given scale, through `cache` if
/// one is given.
///
/// # Panics
/// Panics if ESS compilation fails (harness-only convenience; the curated
/// workloads always compile).
pub fn runtime_for<'a>(
    w: &'a Workload,
    scale: Scale,
    cache: Option<&CompileCache>,
) -> RobustRuntime<'a> {
    w.runtime_cached(scale.ess_config(w.query.dims()), cache).expect("curated workload compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_coarser() {
        assert!(Scale::Quick.ess_config(4).resolution < Scale::Full.ess_config(4).resolution);
        assert!(Scale::Quick.eval_stride(1_000_000) > 1);
        assert_eq!(Scale::Full.eval_stride(1_000), 1);
    }
}
