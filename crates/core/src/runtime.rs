//! The shared runtime every robust algorithm executes against.

use crate::surface::{ContourMemo, SharedSurface, Surface};
use rqp_catalog::{Catalog, Estimator, Query, RqpError, RqpResult, SelVector};
use rqp_ess::{Cell, CompileCache, Ess, EssConfig, Grid, Ladder, LazyEss, PlanId};
use rqp_executor::Engine;
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, PlanNode};
use std::sync::Arc;

/// A query admitted for robust processing: catalog, query, optimizer,
/// simulated execution engine, and the compiled ESS (POSP + contours).
///
/// Compiling the runtime performs the offline work of §7 ("construction of
/// the contours in the ESS … repeated calls to the optimizer … can be
/// carried out in parallel"); everything the discovery algorithms do at
/// "run-time" is lookups into this structure plus budgeted executions.
/// With [`RobustRuntime::compile_lazy`] that offline work is deferred:
/// only the two ladder anchors are costed up front and each contour band
/// is flooded the first time discovery asks for it.
///
/// The surface is held through a [`SharedSurface`] handle so many
/// concurrent sessions (the `rqp-serve` registry) can share one compiled
/// surface and the contour decisions derived from it; discovery runs only
/// read the surface and fill the memo, so sharing is free.
pub struct RobustRuntime<'a> {
    /// Catalog statistics.
    pub catalog: &'a Catalog,
    /// The user query.
    pub query: &'a Query,
    /// The DP optimizer bound to the query.
    pub optimizer: Optimizer<'a>,
    /// The simulated execution engine.
    pub engine: Engine<'a>,
    /// The compiled (or lazily compiling) error-prone selectivity space
    /// and its contour-decision memo.
    surface: SharedSurface,
    /// The native optimizer's estimated ESS location `qe`, computed once at
    /// admission so run-time discovery never has to re-estimate (and never
    /// has to handle estimation failure).
    qe: SelVector,
    /// Session deadline threaded into every discovery run's supervisor
    /// (serving tier); [`rqp_obs::Deadline::none`] — the default — never
    /// lapses.
    deadline: rqp_obs::Deadline,
}

impl<'a> RobustRuntime<'a> {
    /// Compile the runtime eagerly: build the optimizer, the engine, and
    /// the full ESS before returning.
    ///
    /// Errors if the query has no error-prone predicates (there is nothing
    /// to discover), fails validation, or requests an unrepresentable ESS
    /// grid.
    pub fn compile(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: EssConfig,
    ) -> RqpResult<Self> {
        Self::compile_cached(catalog, query, model, config, None)
    }

    /// [`RobustRuntime::compile`] through an explicit persistent compile
    /// cache: a hit restores the surface without an optimizer call, a miss
    /// compiles and stores it (see [`Ess::compile_cached`]).
    pub fn compile_cached(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: EssConfig,
        cache: Option<&CompileCache>,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |optimizer| {
            Ok(SharedSurface::eager(Arc::new(Ess::compile_cached(optimizer, config, cache)?)))
        })
    }

    /// Admit the query against a *lazy anytime* surface: only the ladder
    /// anchors (origin and terminus) are costed now; each contour band is
    /// flooded the first time the discovery walk or an oracle peek reaches
    /// it.
    pub fn compile_lazy(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        config: EssConfig,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |optimizer| {
            Ok(SharedSurface::lazy(LazyEss::begin(optimizer, config)?))
        })
    }

    /// Admit a session against a surface compiled elsewhere (the serve
    /// registry's shared, fingerprint-keyed handles). The surface must have
    /// been compiled for this same (catalog, query, model) triple; the
    /// dimension check below catches gross mismatches, the fingerprint
    /// keying upstream is what guarantees the rest. Sessions admitted on
    /// clones of one handle share its contour-decision memo; on a lazy
    /// handle they also share one frontier, and each session's discovery
    /// walk only waits for the bands it actually pulls.
    pub fn with_surface(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        surface: SharedSurface,
    ) -> RqpResult<Self> {
        Self::admit(catalog, query, model, |_| {
            let got = match &surface.surface {
                Surface::Eager(ess) => ess.grid().dims(),
                Surface::Lazy(lazy) => lazy.grid().dims(),
            };
            if got != query.dims() {
                return Err(RqpError::DimensionMismatch { expected: query.dims(), got });
            }
            Ok(surface)
        })
    }

    /// [`RobustRuntime::with_surface`] on a fresh handle over `ess` (an
    /// empty contour-decision memo).
    pub fn with_shared_ess(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        ess: Arc<Ess>,
    ) -> RqpResult<Self> {
        Self::with_surface(catalog, query, model, SharedSurface::eager(ess))
    }

    fn admit(
        catalog: &'a Catalog,
        query: &'a Query,
        model: CostModel,
        surface_for: impl FnOnce(&Optimizer<'a>) -> RqpResult<SharedSurface>,
    ) -> RqpResult<Self> {
        if query.dims() < 1 {
            return Err(RqpError::InvalidQuery(format!(
                "query {} has no error-prone predicates",
                query.name
            )));
        }
        query.validate(catalog)?;
        let qe = Estimator::new(catalog).estimated_location(query)?;
        let optimizer = Optimizer::new(catalog, query, model);
        let engine = Engine::new(catalog, query, model);
        let surface = surface_for(&optimizer)?;
        // a lazy surface has no finished contour set to check yet; its
        // bands are checked incrementally as the budget checks fire
        if let Some(ess) = surface.as_eager() {
            crate::invariants::debug_check_contours(ess);
        }
        Ok(RobustRuntime {
            catalog,
            query,
            optimizer,
            engine,
            surface,
            qe,
            deadline: rqp_obs::Deadline::none(),
        })
    }

    /// Number of ESS dimensions, `D`.
    pub fn dims(&self) -> usize {
        self.query.dims()
    }

    /// The estimated ESS location `qe` (the traditional optimizer's belief).
    pub fn estimated_location(&self) -> &SelVector {
        &self.qe
    }

    /// Whether the surface is still compiling lazily.
    pub fn is_lazy(&self) -> bool {
        self.surface.as_lazy().is_some()
    }

    /// The ESS discretization grid.
    pub fn grid(&self) -> &Grid {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.grid(),
            Surface::Lazy(lazy) => lazy.grid(),
        }
    }

    /// The contour ladder: band edges and doubling ratio (known up front
    /// on a lazy surface, from its anchors).
    pub fn ladder(&self) -> &Ladder {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.contours.ladder(),
            Surface::Lazy(lazy) => lazy.ladder(),
        }
    }

    /// Number of iso-cost contour bands, `m`.
    pub fn num_bands(&self) -> usize {
        self.ladder().num_bands()
    }

    /// Lower cost edge `CC_band` of a contour band.
    pub fn contour_cost(&self, band: usize) -> f64 {
        self.ladder().cc(band)
    }

    /// The contour doubling ratio `r`.
    pub fn contour_ratio(&self) -> f64 {
        self.ladder().ratio()
    }

    /// The band a cell belongs to. On a lazy surface this is a memoized
    /// single-cell peek, never a band compile.
    pub fn band_of(&self, cell: Cell) -> usize {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.contours.band_of(cell),
            Surface::Lazy(lazy) => lazy.band_of(cell),
        }
    }

    /// The cells of a contour band, ascending by cell index. On a lazy
    /// surface this compiles through `band` first — the discovery walk's
    /// pull point.
    pub fn band_cells(&self, band: usize) -> Arc<Vec<Cell>> {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.contours.cells_arc(band),
            Surface::Lazy(lazy) => lazy.band_cells(band),
        }
    }

    /// Number of distinct plans on a contour band (plan density).
    pub fn band_density(&self, band: usize) -> usize {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.contours.density(&ess.posp, band),
            Surface::Lazy(lazy) => {
                let cells = lazy.band_cells(band);
                let mut plans: Vec<PlanId> = cells.iter().map(|&c| lazy.plan_id_at(c)).collect();
                plans.sort_unstable();
                plans.dedup();
                plans.len()
            }
        }
    }

    /// Contour bands the surface has materialized so far (always
    /// `num_bands` for an eager surface).
    pub fn bands_compiled(&self) -> usize {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.contours.num_bands(),
            Surface::Lazy(lazy) => lazy.bands_compiled(),
        }
    }

    /// Oracle cost `Cost(P_qa, qa)` for a grid cell. On a lazy surface a
    /// memoized single-cell peek.
    pub fn oracle_cost(&self, qa: Cell) -> f64 {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.posp.cost(qa),
            Surface::Lazy(lazy) => lazy.cost(qa),
        }
    }

    /// The optimal (POSP) plan id at a cell. Ids are stable within one
    /// surface; a lazy surface's ids live in its own discovery-order space
    /// until [`RobustRuntime::ess`] canonicalizes them.
    pub fn plan_id_at(&self, cell: Cell) -> PlanId {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.posp.plan_id(cell),
            Surface::Lazy(lazy) => lazy.plan_id_at(cell),
        }
    }

    /// The plan with a surface plan id.
    pub fn plan(&self, id: PlanId) -> Arc<PlanNode> {
        match &self.surface.surface {
            Surface::Eager(ess) => Arc::clone(ess.posp.plan(id)),
            Surface::Lazy(lazy) => lazy.plan(id),
        }
    }

    /// Cost of an arbitrary surface plan at an arbitrary cell.
    pub fn plan_cost_at(&self, id: PlanId, cell: Cell) -> f64 {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.posp.cost_of_plan_at(&self.optimizer, id, cell),
            Surface::Lazy(lazy) => {
                let plan = lazy.plan(id);
                self.optimizer.cost_of(&plan, &lazy.grid().location(cell))
            }
        }
    }

    /// The contour-decision memo of the surface this runtime executes
    /// against.
    pub(crate) fn memo(&self) -> &ContourMemo {
        &self.surface.memo
    }

    /// Every plan id the surface has discovered so far (the full POSP pool
    /// for an eager surface; the pool grows as a lazy surface compiles).
    pub fn plan_pool(&self) -> Vec<PlanId> {
        match &self.surface.surface {
            Surface::Eager(ess) => ess.posp.registry().iter().map(|(id, _)| id).collect(),
            Surface::Lazy(lazy) => lazy.plan_pool(),
        }
    }

    /// Check a POSP-derived budget against the band's doubling window
    /// (debug builds only; see [`crate::invariants`]).
    pub fn debug_check_band_budget(&self, band: usize, budget: f64) {
        crate::invariants::debug_check_band_budget(self.ladder(), band, budget);
    }

    /// Materialize the full surface: for an eager runtime a free clone of
    /// the shared [`Arc`]; for a lazy runtime this compiles every
    /// remaining band and canonicalizes the result (byte-identical to an
    /// eager compile). Whole-surface consumers — anorexic reduction,
    /// snapshot capture, worst-case sweeps — pay the full compile exactly
    /// once, here.
    pub fn ess(&self) -> RqpResult<Arc<Ess>> {
        match &self.surface.surface {
            Surface::Eager(ess) => Ok(Arc::clone(ess)),
            Surface::Lazy(lazy) => lazy.finish(),
        }
    }

    /// Replace the engine with a δ-perturbed one (§7: bounded cost-model
    /// error — actual execution costs deviate from the model by up to a
    /// `(1+delta)` factor either way; the MSO guarantees inflate by at most
    /// `(1+delta)²`).
    pub fn set_cost_error(&mut self, delta: f64) {
        let injector = self.engine.injector();
        self.engine =
            Engine::with_cost_error(self.catalog, self.query, self.optimizer.model(), delta);
        if let Some(inj) = injector {
            self.engine = self.engine.with_injector(inj);
        }
    }

    /// Attach a fault injector to the engine (chaos testing): every
    /// subsequent execution consults it once and applies whatever fault it
    /// returns. The supervision layer in [`crate::Supervisor`] recovers.
    pub fn set_fault_injector(&mut self, injector: &'a dyn rqp_executor::FaultInjector) {
        self.engine = self.engine.with_injector(injector);
    }

    /// Bound every subsequent discovery run by a session deadline (see
    /// [`crate::Supervisor::with_deadline`]).
    pub fn set_deadline(&mut self, deadline: rqp_obs::Deadline) {
        self.deadline = deadline;
    }

    /// The session deadline in force ([`rqp_obs::Deadline::none`] unless
    /// [`set_deadline`](Self::set_deadline) was called).
    pub fn deadline(&self) -> rqp_obs::Deadline {
        self.deadline
    }

    /// A fresh supervisor for one discovery run: the runtime's session
    /// deadline, the calling thread's tracer.
    pub fn supervisor(&self, algo: &'static str) -> crate::supervise::Supervisor {
        crate::supervise::Supervisor::new(algo).with_deadline(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::example_2d;
    use crate::Discovery;

    #[test]
    fn compile_builds_all_components() {
        let (catalog, query) = example_2d();
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 10, ..Default::default() },
        )
        .unwrap();
        assert_eq!(rt.dims(), 2);
        assert_eq!(rt.grid().num_cells(), 100);
        assert!(rt.oracle_cost(0) > 0.0);
        assert!(rt.num_bands() > 1);
        assert!(!rt.is_lazy());
    }

    #[test]
    fn shared_ess_admission_reuses_the_surface() {
        let (catalog, query) = example_2d();
        let rt = RobustRuntime::compile(
            &catalog,
            &query,
            CostModel::default(),
            EssConfig { resolution: 10, ..Default::default() },
        )
        .unwrap();
        let shared = rt.ess().unwrap();
        let rt2 =
            RobustRuntime::with_shared_ess(&catalog, &query, CostModel::default(), shared).unwrap();
        assert!(Arc::ptr_eq(&rt.ess().unwrap(), &rt2.ess().unwrap()), "no recompile, same surface");
        assert_eq!(rt2.dims(), 2);
    }

    #[test]
    fn lazy_admission_matches_eager_facade_answers() {
        let (catalog, query) = example_2d();
        let cfg = EssConfig { resolution: 10, ..Default::default() };
        let eager = RobustRuntime::compile(&catalog, &query, CostModel::default(), cfg).unwrap();
        let lazy =
            RobustRuntime::compile_lazy(&catalog, &query, CostModel::default(), cfg).unwrap();
        assert!(lazy.is_lazy());
        assert_eq!(lazy.ladder(), eager.ladder());
        for band in 0..eager.num_bands() {
            assert_eq!(*lazy.band_cells(band), *eager.band_cells(band), "band {band}");
            assert_eq!(lazy.band_density(band), eager.band_density(band), "density {band}");
        }
        for qa in eager.grid().cells() {
            assert_eq!(lazy.oracle_cost(qa).to_bits(), eager.oracle_cost(qa).to_bits());
            assert_eq!(lazy.band_of(qa), eager.band_of(qa));
        }
        // materializing the lazy surface canonicalizes to the eager bytes
        let a = rqp_ess::PospSnapshot::capture(&eager.ess().unwrap()).encode(0);
        let b = rqp_ess::PospSnapshot::capture(&lazy.ess().unwrap()).encode(0);
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_discovery_only_compiles_pulled_bands() {
        let (catalog, query) = example_2d();
        let cfg = EssConfig { resolution: 10, ..Default::default() };
        let rt = RobustRuntime::compile_lazy(&catalog, &query, CostModel::default(), cfg).unwrap();
        let origin = rt.grid().origin();
        let t = crate::bouquet::PlanBouquet::new().discover(&rt, origin);
        assert!(t.steps.last().unwrap().completed);
        // the origin lies on the first contour: the walk must not have
        // pulled bands anywhere near the top of the ladder
        assert!(
            rt.bands_compiled() < rt.num_bands(),
            "origin discovery compiled all {} bands",
            rt.num_bands()
        );
    }
}
