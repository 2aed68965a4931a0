#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! The error-prone selectivity space (ESS): grid, POSP compilation,
//! iso-cost contours and anorexic reduction.
//!
//! [`Ess::compile`] bundles the full pipeline: discretize the selectivity
//! space ([`grid::Grid`]), cost every location by flooding the grid band
//! by band from the origin ([`lazy::LazyEss`], run to the last band) into
//! the optimal-plan surface ([`posp::Posp`]), whose geometric cost bands
//! ([`contours::ContourSet`]) the flood builds as it goes. [`LazyEss`]
//! also serves the same flood anytime, one band at a time. The robust
//! processing algorithms in `rqp-core` run entirely against these
//! structures.

pub mod anorexic;
pub mod cache;
pub mod contours;
pub mod grid;
pub mod lazy;
pub mod obs;
pub mod posp;
pub mod registry;
pub mod snapshot;

pub use anorexic::{anorexic_reduce, Reduced};
pub use cache::{compile_fingerprint, CompileCache};
pub use contours::{ContourSet, Ladder};
pub use grid::{Cell, Grid};
pub use lazy::LazyEss;
pub use obs::register_metrics;
pub use posp::{CompileMode, Posp};
pub use registry::{PlanId, PlanRegistry};
pub use snapshot::PospSnapshot;

use rqp_catalog::RqpResult;
use rqp_optimizer::Optimizer;

/// ESS compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EssConfig {
    /// Grid points per dimension.
    pub resolution: usize,
    /// Smallest grid selectivity (axes run log-spaced from here to 1.0).
    pub min_sel: f64,
    /// Geometric cost ratio between consecutive contours (paper default 2).
    pub contour_ratio: f64,
    /// How the optimal-plan surface is computed (recosting-first by
    /// default; see [`CompileMode`]).
    pub mode: CompileMode,
}

impl Default for EssConfig {
    fn default() -> Self {
        EssConfig {
            resolution: 16,
            min_sel: 1e-5,
            contour_ratio: 2.0,
            mode: CompileMode::default(),
        }
    }
}

impl EssConfig {
    /// A resolution schedule that keeps `resolution^D` tractable while the
    /// experiments sweep dimensionality: 2D:48, 3D:24, 4D:14, 5D:10, 6D:8.
    pub fn for_dims(dims: usize) -> Self {
        let resolution = match dims {
            0 | 1 => 64,
            2 => 48,
            3 => 24,
            4 => 14,
            5 => 10,
            _ => 8,
        };
        EssConfig { resolution, ..Default::default() }
    }

    /// Same schedule scaled down for unit tests and CI.
    pub fn coarse(dims: usize) -> Self {
        let resolution = match dims {
            0 | 1 => 24,
            2 => 16,
            3 => 10,
            4 => 7,
            5 => 6,
            _ => 5,
        };
        EssConfig { resolution, ..Default::default() }
    }
}

/// A fully compiled ESS: POSP surface plus contour bands.
#[derive(Debug, Clone)]
pub struct Ess {
    /// The compiled optimal-plan surface.
    pub posp: Posp,
    /// The iso-cost contour bands.
    pub contours: ContourSet,
}

impl Ess {
    /// Compile the ESS for the optimizer's query, with no persistent
    /// cache: `compile_cached(.., None)`.
    ///
    /// Errors if the configured grid is degenerate or too large to address.
    pub fn compile(optimizer: &Optimizer<'_>, config: EssConfig) -> RqpResult<Ess> {
        Ess::compile_cached(optimizer, config, None)
    }

    /// Compile the ESS, consulting an explicit persistent cache (if any).
    ///
    /// On a hit, the surface is restored from disk without a single
    /// optimizer call; a miss compiles normally and stores the snapshot for
    /// the next run. Entries are keyed by [`compile_fingerprint`], so any
    /// change to the catalog, query, cost model or config invalidates them.
    pub fn compile_cached(
        optimizer: &Optimizer<'_>,
        config: EssConfig,
        cache: Option<&CompileCache>,
    ) -> RqpResult<Ess> {
        let m = obs::metrics();
        m.compiles.inc();
        let span = rqp_obs::time_histogram(&m.compile_seconds);
        let mut compile_span =
            rqp_obs::current().span(rqp_obs::names::SPAN_ESS_COMPILE, rqp_obs::SpanKind::Compile);
        compile_span.attr("query", optimizer.query().name.as_str());
        let opt_calls = rqp_obs::global().counter(rqp_obs::names::OPTIMIZER_CALLS);
        let calls_before = opt_calls.get();

        let fingerprint = cache.map(|_| {
            compile_fingerprint(optimizer.catalog(), optimizer.query(), &optimizer.model(), &config)
        });
        if let (Some(cache), Some(fp)) = (cache, fingerprint) {
            if let Some(ess) = cache.restore(fp) {
                m.cache_hits.inc();
                compile_span.attr("cache", "hit");
                m.grid_cells.set(ess.posp.grid().num_cells() as f64);
                m.contour_bands.set(ess.contours.num_bands() as f64);
                m.posp_plans.set(ess.posp.num_plans() as f64);
                if rqp_obs::events_enabled() {
                    rqp_obs::emit(
                        rqp_obs::Event::new(rqp_obs::names::EV_ESS_CACHE)
                            .with("query", optimizer.query().name.as_str())
                            .with("outcome", "hit")
                            .with("seconds", span.stop()),
                    );
                }
                return Ok(ess);
            }
            m.cache_misses.inc();
            if rqp_obs::events_enabled() {
                rqp_obs::emit(
                    rqp_obs::Event::new(rqp_obs::names::EV_ESS_CACHE)
                        .with("query", optimizer.query().name.as_str())
                        .with("outcome", "miss"),
                );
            }
        }

        let (posp, contours) = {
            let _posp_timer = rqp_obs::time_histogram(&m.posp_compile_seconds);
            LazyEss::start(optimizer, config)?.flood_all(optimizer)?
        };
        m.posp_cells.add(posp.grid().num_cells() as u64);

        compile_span.attr("grid_cells", posp.grid().num_cells() as u64);
        compile_span.attr("posp_plans", posp.num_plans() as u64);
        compile_span.attr("contour_bands", contours.num_bands() as u64);
        compile_span.attr("optimizer_calls", opt_calls.get() - calls_before);
        m.grid_cells.set(posp.grid().num_cells() as f64);
        m.contour_bands.set(contours.num_bands() as f64);
        m.posp_plans.set(posp.num_plans() as f64);

        if rqp_obs::events_enabled() {
            for band in 0..contours.num_bands() {
                rqp_obs::emit(
                    rqp_obs::Event::new(rqp_obs::names::EV_CONTOUR_BAND)
                        .with("query", optimizer.query().name.as_str())
                        .with("band", band as u64)
                        .with("cost", contours.cc(band))
                        .with("cells", contours.cells(band).len() as u64)
                        .with("plans", contours.plans_on(&posp, band).len() as u64),
                );
            }
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_ESS_COMPILE)
                    .with("query", optimizer.query().name.as_str())
                    .with("dims", posp.grid().dims() as u64)
                    .with("resolution", config.resolution as u64)
                    .with("grid_cells", posp.grid().num_cells() as u64)
                    .with("posp_plans", posp.num_plans() as u64)
                    .with("contour_bands", contours.num_bands() as u64)
                    .with("optimizer_calls", opt_calls.get() - calls_before)
                    .with("compile_seconds", span.stop()),
            );
        }

        let ess = Ess { posp, contours };
        if let (Some(cache), Some(fp)) = (cache, fingerprint) {
            if cache.store(fp, &PospSnapshot::capture(&ess)).is_ok() {
                m.cache_stores.inc();
            }
        }
        Ok(ess)
    }

    /// The grid underlying the space.
    pub fn grid(&self) -> &Grid {
        self.posp.grid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_qplan::CostModel;

    #[test]
    fn end_to_end_compile() {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 8_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .build()
            .unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let ess = Ess::compile(&opt, EssConfig { resolution: 20, ..Default::default() }).unwrap();
        assert_eq!(ess.grid().dims(), 1);
        assert_eq!(ess.grid().num_cells(), 20);
        assert!(ess.contours.num_bands() >= 2);
        assert!(ess.posp.num_plans() >= 1);
    }

    #[test]
    fn resolution_schedules_shrink_with_dims() {
        assert!(EssConfig::for_dims(2).resolution > EssConfig::for_dims(5).resolution);
        assert!(EssConfig::coarse(3).resolution < EssConfig::for_dims(3).resolution);
    }
}
