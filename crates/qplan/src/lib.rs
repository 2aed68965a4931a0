#![warn(missing_docs)]
// Unit tests assert exact float results on purpose: a plan context reads
// back the selectivities it was given, bit for bit.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp)
)]

//! Physical query plans, pipeline decomposition and the PCM cost model.
//!
//! This crate provides the execution-plan substrate that the paper's
//! algorithms manipulate:
//!
//! * [`ops`] — physical operator trees (scans, three join algorithms with an
//!   index nested-loop variant, sorts) over the logical queries of
//!   `rqp-catalog`;
//! * [`cost`] — a classical I/O + CPU cost model with *selectivity
//!   injection*: every plan can be costed at any location of the error-prone
//!   selectivity space. The model satisfies **Plan Cost Monotonicity** (PCM,
//!   §2.4): costs are non-decreasing in every epp selectivity — the single
//!   assumption all MSO guarantees rest on;
//! * [`pipeline`] — demand-driven-iterator pipeline decomposition (§3.1.1)
//!   and the inter-/intra-pipeline total ordering of epps (§3.1.3) that
//!   determines the *spill node* of a plan;
//! * [`fingerprint`] — structural plan identity for deduplication across the
//!   thousands of optimizer calls that compile an ESS;
//! * [`stable`] — a version-stable FNV-1a hasher for fingerprints that are
//!   persisted to disk (the ESS compile cache key).

pub mod cost;
pub mod fingerprint;
pub mod ops;
pub mod pipeline;
pub mod stable;

pub use cost::{cost_cmp, cost_eq, CostModel, CostParams, PlanCtx, COST_EPS};
pub use fingerprint::Fingerprint;
pub use ops::PlanNode;
pub use pipeline::{epp_spill_order, pipelines, spill_subtree, spill_target, Pipeline};
pub use stable::StableHasher;
