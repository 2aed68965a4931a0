#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! Benchmark workloads: TPC-DS-shaped and IMDB-shaped catalogs and the
//! paper's query suite.
//!
//! ```
//! use rqp_workloads::{BenchQuery, Workload};
//! use rqp_ess::EssConfig;
//!
//! let w = Workload::tpcds(BenchQuery::Q15_3D).unwrap();
//! let rt = w.runtime(EssConfig::coarse(w.query.dims())).unwrap();
//! assert_eq!(rt.dims(), 3);
//! ```

pub mod extended;
pub mod job;
pub mod session;
pub mod suite;
pub mod synth;
pub mod tpcds;

pub use extended::extended_suite;
pub use job::{imdb_catalog, job_q1a};
pub use session::{parse_session_file, SessionEntry};
pub use suite::{q91, BenchQuery};
pub use synth::{synth_workload, Shape, SynthConfig};
pub use tpcds::tpcds_catalog;

use rqp_catalog::{Catalog, Query, RqpError, RqpResult};
use rqp_core::RobustRuntime;
use rqp_ess::{CompileCache, EssConfig};
use rqp_qplan::CostModel;

/// A self-contained workload: an owned catalog plus one query against it.
pub struct Workload {
    /// The catalog.
    pub catalog: Catalog,
    /// The query.
    pub query: Query,
}

impl Workload {
    /// A TPC-DS benchmark query.
    ///
    /// # Errors
    /// Propagates builder errors (impossible for the curated suite).
    pub fn tpcds(bq: BenchQuery) -> RqpResult<Workload> {
        let catalog = tpcds_catalog();
        let query = bq.build(&catalog)?;
        Ok(Workload { catalog, query })
    }

    /// TPC-DS Q91 at a chosen epp dimensionality (2..=6).
    ///
    /// # Errors
    /// Propagates builder errors (impossible for in-range `dims`).
    pub fn q91(dims: usize) -> RqpResult<Workload> {
        let catalog = tpcds_catalog();
        let query = q91(&catalog, dims)?;
        Ok(Workload { catalog, query })
    }

    /// JOB Q1a on the IMDB-shaped catalog.
    ///
    /// # Errors
    /// Propagates builder errors (impossible for the stock catalog).
    pub fn job_q1a() -> RqpResult<Workload> {
        let catalog = imdb_catalog();
        let query = job_q1a(&catalog)?;
        Ok(Workload { catalog, query })
    }

    /// Look a workload up by its CLI name: `JOB_Q1a`, the `{2..6}D_Q91`
    /// dimensionality sweep, or any [`BenchQuery`] name (all matched
    /// case-insensitively).
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] with an "unknown workload" message for
    /// unrecognized names.
    pub fn by_name(name: &str) -> RqpResult<Workload> {
        if name.eq_ignore_ascii_case("JOB_Q1a") {
            return Workload::job_q1a();
        }
        if let Some(d) = name.strip_suffix("D_Q91").and_then(|p| p.parse::<usize>().ok()) {
            if (2..=6).contains(&d) {
                return Workload::q91(d);
            }
        }
        for &bq in BenchQuery::all() {
            if bq.name().eq_ignore_ascii_case(name) {
                return Workload::tpcds(bq);
            }
        }
        Err(RqpError::Config(format!("unknown workload {name:?}")))
    }

    /// Compile a robust runtime for this workload with the default cost
    /// model.
    ///
    /// # Errors
    /// Propagates [`RobustRuntime::compile`] errors.
    pub fn runtime(&self, config: EssConfig) -> RqpResult<RobustRuntime<'_>> {
        self.runtime_cached(config, None)
    }

    /// [`Workload::runtime`] through an explicit persistent compile cache.
    ///
    /// # Errors
    /// Propagates [`RobustRuntime::compile_cached`] errors.
    pub fn runtime_cached(
        &self,
        config: EssConfig,
        cache: Option<&CompileCache>,
    ) -> RqpResult<RobustRuntime<'_>> {
        RobustRuntime::compile_cached(
            &self.catalog,
            &self.query,
            CostModel::default(),
            config,
            cache,
        )
    }

    /// Like [`Workload::runtime`], but against a lazy anytime surface:
    /// only the ladder anchors are costed up front and contour bands
    /// materialize as discovery pulls them.
    ///
    /// # Errors
    /// Propagates [`RobustRuntime::compile_lazy`] errors.
    pub fn runtime_lazy(&self, config: EssConfig) -> RqpResult<RobustRuntime<'_>> {
        RobustRuntime::compile_lazy(&self.catalog, &self.query, CostModel::default(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_core::{evaluate, Discovery, PlanBouquet, SpillBound};

    #[test]
    fn q15_end_to_end_spillbound_within_guarantee() {
        let w = Workload::tpcds(BenchQuery::Q15_3D).unwrap();
        let rt = w.runtime(EssConfig::coarse(3)).unwrap();
        let sb = SpillBound::new();
        let ev = evaluate(&rt, &sb);
        let bound = 2.0 * rqp_core::sb_guarantee(3);
        assert!(ev.mso <= bound, "MSOe {} exceeds band-adjusted bound {bound}", ev.mso);
        assert!(ev.aso >= 1.0);
        assert!(rt.ess().unwrap().posp.num_plans() >= 3, "expected plan diversity");
    }

    #[test]
    fn job_q1a_runtime_compiles_with_plan_diversity() {
        let w = Workload::job_q1a().unwrap();
        let rt = w.runtime(EssConfig::coarse(3)).unwrap();
        assert!(rt.ess().unwrap().posp.num_plans() >= 2);
        let t = SpillBound::new().discover(&rt, rt.grid().terminus());
        assert!(t.steps.last().unwrap().completed);
    }

    #[test]
    fn plan_bouquet_runs_on_a_star_query() {
        let w = Workload::tpcds(BenchQuery::Q7_4D).unwrap();
        let rt = w.runtime(EssConfig { resolution: 5, ..Default::default() }).unwrap();
        let pb = PlanBouquet::new();
        let t = pb.discover(&rt, rt.grid().num_cells() / 2);
        assert!(t.subopt() >= 1.0 - 1e-9);
    }
}
