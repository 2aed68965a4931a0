#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # robust-qp — platform-independent robust query processing
//!
//! A Rust implementation of the **PlanBouquet**, **SpillBound** and
//! **AlignedBound** robust query processing algorithms (Karthik, Haritsa,
//! Kenkre, Pandit, Krishnan — *Platform-Independent Robust Query
//! Processing*, IEEE TKDE 2019; presented as the ICDE 2019 tutorial
//! *Robust Query Processing: Mission Possible*), together with every
//! substrate they need: a statistics catalog, physical plans with a
//! PCM-compliant cost model, a Selinger-style optimizer with selectivity
//! injection, a budgeted/spill execution engine, and the error-prone
//! selectivity space machinery (POSP compilation, iso-cost contours,
//! anorexic reduction).
//!
//! ## Quickstart
//!
//! ```
//! use robust_qp::prelude::*;
//!
//! // a workload: TPC-DS Q15 with three error-prone join predicates
//! let w = Workload::tpcds(BenchQuery::Q15_3D)?;
//! // compile the ESS (coarse grid for the doctest)
//! let rt = w.runtime(EssConfig::coarse(3))?;
//! // run SpillBound for a query instance at the grid terminus
//! let trace = SpillBound::new().discover(&rt, rt.grid().terminus());
//! assert!(trace.subopt() <= 2.0 * sb_guarantee(3));
//! # Ok::<(), RqpError>(())
//! ```
//!
//! The facade re-exports each layer; see the member crates for details:
//! [`catalog`], [`qplan`], [`optimizer`], [`executor`], [`ess`], [`core`],
//! [`workloads`], [`obs`], [`chaos`], [`serve`].

pub use rqp_catalog as catalog;
pub use rqp_chaos as chaos;
pub use rqp_core as core;
pub use rqp_ess as ess;
pub use rqp_executor as executor;
pub use rqp_obs as obs;
pub use rqp_optimizer as optimizer;
pub use rqp_qplan as qplan;
pub use rqp_serve as serve;
pub use rqp_workloads as workloads;

/// The commonly-used surface of the library.
pub mod prelude {
    pub use rqp_catalog::{
        Catalog, CatalogBuilder, EppId, Query, QueryBuilder, RelationBuilder, RqpError, RqpResult,
        SelVector, Selectivity,
    };
    pub use rqp_chaos::{FaultConfig, FaultPlan};
    pub use rqp_core::{
        ab_guarantee_range, alignment_stats, degraded_factor, evaluate, pb_guarantee, sb_guarantee,
        AlignedBound, Discovery, DiscoveryTrace, NativeOptimizer, PlanBouquet, ReOptimizer,
        RobustRuntime, SpillBound,
    };
    pub use rqp_ess::{CompileCache, CompileMode, Ess, EssConfig, Grid, PlanId, Posp};
    pub use rqp_executor::Engine;
    pub use rqp_optimizer::{Optimizer, Planned};
    pub use rqp_qplan::{CostModel, CostParams, PlanNode};
    pub use rqp_serve::{serve_workload, ServeConfig, ServeReport, Server, SessionSpec};
    pub use rqp_workloads::{parse_session_file, BenchQuery, SessionEntry, Workload};
}
