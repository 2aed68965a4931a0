#![warn(missing_docs)]
// Unit tests assert exact float results on purpose: clamping and
// estimation return the input value itself, where a tolerance would hide
// a changed formula.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::float_cmp)
)]

//! Catalog, statistics and the logical query model for the robust-qp engine.
//!
//! This crate is the lowest layer of the workspace: it defines relations and
//! their statistics, filter/join predicates, selectivities, and the logical
//! (select-project-join) query representation on which the optimizer, the
//! error-prone selectivity space (ESS) and the robust processing algorithms
//! all operate.
//!
//! The paper's setting is a conventional relational engine where a query has
//! a set of *error-prone predicates* (epps) whose selectivities cannot be
//! estimated reliably. Each epp becomes one dimension of the ESS; everything
//! else in the catalog is assumed to be known exactly.

pub mod builder;
pub mod catalog;
pub mod epp_policy;
pub mod error;
pub mod estimate;
pub mod predicate;
pub mod query;
pub mod selectivity;
pub mod sql;
pub mod stats;

pub use builder::{CatalogBuilder, QueryBuilder, RelationBuilder};
pub use catalog::Catalog;
pub use epp_policy::{apply_policy, EppPolicy};
pub use error::{RqpError, RqpResult};
pub use estimate::Estimator;
pub use predicate::{ColRef, FilterPredicate, JoinPredicate, PredId};
pub use query::{EppId, Query, MAX_RELATIONS};
pub use selectivity::{SelVector, Selectivity};
pub use sql::{parse_query, ParseError};
pub use stats::{Column, RelId, Relation};
