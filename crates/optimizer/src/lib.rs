#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! A Selinger-style dynamic-programming query optimizer with selectivity
//! injection.
//!
//! This crate plays the role the paper assigns to the (modified) PostgreSQL
//! optimizer: given a query and an *injected* assignment of selectivities to
//! its error-prone predicates — a location `q` of the ESS — it returns the
//! cheapest physical plan and its cost, `Cost(P_q, q)`. Repeated invocation
//! over a grid of locations yields the Parametric Optimal Set of Plans
//! (POSP), the search space of all bouquet algorithms (§2.2).
//!
//! The optimizer enumerates connected subsets of the join graph bottom-up
//! (bushy up to [`BUSHY_MAX_RELATIONS`] relations, left-deep beyond),
//! choosing among sequential and index access paths, and hash / sort-merge
//! / nested-loop / index nested-loop join operators. Because every plan of a given relation subset
//! produces identical output cardinality and width under this cost model,
//! Bellman's principle of optimality holds exactly and the DP is exact over
//! its plan space.
//!
//! It also provides [`Optimizer::optimize_spilling_on`] — "obtain a least
//! cost plan from the optimizer which spills on a user-specified epp" — the
//! engine extension §6.1 adds for AlignedBound's replacement-plan search.

pub mod dp;
pub mod obs;

pub use dp::{Optimizer, Planned, BUSHY_MAX_RELATIONS};
pub use obs::register_metrics;
