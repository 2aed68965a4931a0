//! Instrumentation handles for ESS compilation — the §7 "repeated calls to
//! the optimizer" overhead this crate exists to pay.

use rqp_obs::{default_compile_buckets, global, names, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

pub(crate) struct EssMetrics {
    /// `rqp_ess_memo_hits_total`
    pub memo_hits: Arc<Counter>,
    /// `rqp_ess_posp_cells_total`
    pub posp_cells: Arc<Counter>,
    /// `rqp_ess_posp_compile_seconds`
    pub posp_compile_seconds: Arc<Histogram>,
    /// `rqp_ess_posp_plans`
    pub posp_plans: Arc<Gauge>,
    /// `rqp_ess_compile_seconds`
    pub compile_seconds: Arc<Histogram>,
    /// `rqp_ess_contour_bands`
    pub contour_bands: Arc<Gauge>,
    /// `rqp_ess_grid_cells`
    pub grid_cells: Arc<Gauge>,
    /// `rqp_ess_compiles_total`
    pub compiles: Arc<Counter>,
    /// `rqp_ess_seed_cells_total`
    pub seed_cells: Arc<Counter>,
    /// `rqp_ess_recost_cells_total`
    pub recost_cells: Arc<Counter>,
    /// `rqp_ess_recost_fallback_cells_total`
    pub recost_fallback_cells: Arc<Counter>,
    /// `rqp_ess_cache_hits_total`
    pub cache_hits: Arc<Counter>,
    /// `rqp_ess_cache_misses_total`
    pub cache_misses: Arc<Counter>,
    /// `rqp_ess_cache_stores_total`
    pub cache_stores: Arc<Counter>,
    /// `rqp_ess_cache_corrupt_total`
    pub cache_corrupt: Arc<Counter>,
    /// `rqp_ess_bands_compiled_total`
    pub bands_compiled: Arc<Counter>,
    /// `rqp_ess_bands_skipped_total`
    pub bands_skipped: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static EssMetrics {
    static METRICS: OnceLock<EssMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = global();
        // Compile-scale buckets: cold 4D+ compiles run multi-second to
        // multi-minute, far past the ~67s latency-bucket ceiling.
        let buckets = default_compile_buckets();
        EssMetrics {
            memo_hits: g.counter(names::ESS_MEMO_HITS),
            posp_cells: g.counter(names::ESS_POSP_CELLS),
            posp_compile_seconds: g.histogram(names::ESS_POSP_COMPILE_SECONDS, &buckets),
            posp_plans: g.gauge(names::ESS_POSP_PLANS),
            compile_seconds: g.histogram(names::ESS_COMPILE_SECONDS, &buckets),
            contour_bands: g.gauge(names::ESS_CONTOUR_BANDS),
            grid_cells: g.gauge(names::ESS_GRID_CELLS),
            compiles: g.counter(names::ESS_COMPILES),
            seed_cells: g.counter(names::ESS_SEED_CELLS),
            recost_cells: g.counter(names::ESS_RECOST_CELLS),
            recost_fallback_cells: g.counter(names::ESS_RECOST_FALLBACK_CELLS),
            cache_hits: g.counter(names::ESS_CACHE_HITS),
            cache_misses: g.counter(names::ESS_CACHE_MISSES),
            cache_stores: g.counter(names::ESS_CACHE_STORES),
            cache_corrupt: g.counter(names::ESS_CACHE_CORRUPT),
            bands_compiled: g.counter(names::ESS_BANDS_COMPILED),
            bands_skipped: g.counter(names::ESS_BANDS_SKIPPED),
        }
    })
}

/// Pre-register the ESS metric series (at zero) in the global registry, so
/// snapshots taken before any compile still list them.
pub fn register_metrics() {
    let _ = metrics();
}
