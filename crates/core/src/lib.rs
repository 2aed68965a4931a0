#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! Robust query processing algorithms with provable MSO guarantees.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates:
//!
//! * [`bouquet::PlanBouquet`] — the baseline discovery algorithm of Dutt &
//!   Haritsa (TODS 2016): execute *every* plan of each doubling iso-cost
//!   contour under budget until one completes. `MSO ≤ 4(1+λ)·ρ_red`.
//! * [`spillbound::SpillBound`] — Algorithm 1: per contour, spill-execute
//!   one maximal-learning plan per error-prone predicate; half-space
//!   pruning plus contour-density-independent execution give the
//!   platform-independent guarantee `MSO ≤ D² + 3D`.
//! * [`aligned::AlignedBound`] — Algorithm 2: exploit or induce
//!   (predicate-set) contour alignment to approach the `Ω(D)` lower bound;
//!   `MSO ∈ [2D+2, D²+3D]`.
//! * [`native::NativeOptimizer`] — the traditional baseline: optimize at the
//!   estimated location `qe`, run that plan wherever `qa` actually is.
//! * [`eval`] — the exhaustive empirical-MSO harness behind Figs. 8–13.
//!
//! All algorithms implement the [`Discovery`] trait and produce complete
//! [`trace::DiscoveryTrace`]s.

pub mod advisor;
pub mod aligned;
pub mod bouquet;
pub mod eval;
pub mod guarantees;
pub mod invariants;
pub mod knowledge;
pub mod lowerbound;
pub mod native;
pub mod obs;
pub mod reopt;
pub mod runtime;
pub mod spillbound;
pub mod supervise;
pub mod surface;
pub mod trace;

pub use advisor::{advise, Advice, Recommendation};
pub use aligned::{alignment_stats, AlignedBound, AlignmentStats};
pub use bouquet::PlanBouquet;
pub use eval::{evaluate, evaluate_sampled, Evaluation};
pub use guarantees::{ab_guarantee_range, pb_guarantee, sb_guarantee};
pub use knowledge::Knowledge;
pub use lowerbound::AdversarialGame;
pub use native::NativeOptimizer;
pub use obs::register_metrics;
pub use reopt::ReOptimizer;
pub use runtime::RobustRuntime;
pub use spillbound::SpillBound;
pub use supervise::{RetryPolicy, Supervisor};
pub use surface::SharedSurface;
pub use trace::{DiscoveryTrace, ExecMode, PlanRef, Step};

use rqp_ess::Cell;

/// A robust query processing algorithm: given the compiled runtime and an
/// actual selectivity location, produce the full discovery trace.
pub trait Discovery: Sync {
    /// Short display name ("PB", "SB", "AB", …).
    fn name(&self) -> &'static str;

    /// Run the algorithm for the query instance located at grid cell `qa`.
    fn discover(&self, rt: &RobustRuntime<'_>, qa: Cell) -> DiscoveryTrace;
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the crate's unit tests.

    use rqp_catalog::{Catalog, CatalogBuilder, Query, QueryBuilder, RelationBuilder};

    /// A 3-relation catalog and the introduction's example query EQ with
    /// two error-prone join predicates.
    pub fn example_2d() -> (Catalog, Query) {
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

    /// A 3D fixture: EQ extended with a customer dimension.
    pub fn example_3d() -> (Catalog, Query) {
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
                    .indexed_column("o_custkey", 1_500_000, 8)
                    .build(),
            )
            .relation(
                RelationBuilder::new("customer", 1_500_000)
                    .indexed_column("c_custkey", 1_500_000, 8)
                    .column("c_balance", 100_000, 8)
                    .build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "EQ3")
            .table("part")
            .table("lineitem")
            .table("orders")
            .table("customer")
            .epp_join("part", "p_partkey", "lineitem", "l_partkey")
            .epp_join("orders", "o_orderkey", "lineitem", "l_orderkey")
            .epp_join("customer", "c_custkey", "orders", "o_custkey")
            .filter("part", "p_price", 0.05)
            .filter("customer", "c_balance", 0.1)
            .build()
            .unwrap();
        (catalog, query)
    }
}
