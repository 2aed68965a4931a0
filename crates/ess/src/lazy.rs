//! POSP compilation: the band flood, eager or anytime.
//!
//! The POSP is built by invoking the optimizer at ESS grid locations
//! (§2.2). This module is the one compiler that does it, and it works
//! band by band: [`LazyEss::compile_through`] floods the grid outward from
//! the origin one cost band at a time, so a discovery that terminates at
//! contour `k` never invokes the optimizer on cells above `k`'s boundary
//! layer (the **frontier invariant**: a cell is costed only when it is a
//! `+1` neighbor of some cell in a band `≤ k`). An eager compile
//! ([`crate::Ess::compile`]) is the same flood run to the last band.
//!
//! What makes the result independent of how far and in which order the
//! flood ran:
//!
//! - Each cell is costed by a fixed per-cell protocol.
//!   [`CompileMode::Exact`] runs a full DP; recost mode DPs the corners of
//!   the cell's seed box (`posp::seed_marks` / `posp::seed_box`) on
//!   demand, memoizes them, and recosts the agreed plan when all corners
//!   agree, DP'ing the cell otherwise.
//! - The band ladder ([`Ladder`]) is anchored at the origin and terminus
//!   cells — under plan-cost monotonicity (PCM, §2.5) the surface's
//!   `cmin`/`cmax` — and every cell is banded by [`Ladder::band`] as the
//!   flood reaches it. The flood's bands *are* the finished surface's
//!   [`ContourSet`]; nothing bands the cells a second time.
//! - Finishing feeds the completed surface through `Posp::assemble` in
//!   cell-index order, so plan ids are assigned first-seen by cell index
//!   whatever order the flood discovered the plans in.
//!
//! Concurrency: one [`parking_lot::Mutex`] guards the frontier, making
//! band materialization single-flight — peers that ask for a band already
//! being compiled block only until *that* band is done. Costing inside a
//! band goes through rayon's `par_iter`; the vendored rayon stub runs it
//! sequentially on the calling thread (which holds the frontier lock),
//! and under the real crate the caller participates in its own
//! `par_iter`, so holding the lock across it cannot deadlock the pool.

use crate::contours::Ladder;
use crate::grid::{Cell, Grid};
use crate::posp::{is_seed_cell, seed_box, seed_marks, CompileMode, Posp};
use crate::registry::{PlanId, PlanRegistry};
use crate::{ContourSet, Ess, EssConfig};
use parking_lot::Mutex;
use rayon::prelude::*;
use rqp_catalog::{Catalog, Query, RqpError, RqpResult};
use rqp_obs::{JsonValue, Stopwatch};
use rqp_optimizer::Optimizer;
use rqp_qplan::{cost_eq, CostModel, Fingerprint, PlanNode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Accumulates one compile phase's total work across parallel workers:
/// per-cell [`Stopwatch`] readings land in an atomic nanosecond counter,
/// reported afterwards as one synthetic aggregate span. Summed worker time
/// can exceed the enclosing span's wall time — it is attribution ("where
/// did the optimizer calls go"), not a timeline.
struct PhaseClock {
    enabled: bool,
    nanos: AtomicU64,
    cells: AtomicU64,
}

impl PhaseClock {
    fn new(enabled: bool) -> PhaseClock {
        PhaseClock { enabled, nanos: AtomicU64::new(0), cells: AtomicU64::new(0) }
    }

    /// Start timing one cell's work (no-op when tracing is disabled).
    fn cell(&self) -> Option<Stopwatch> {
        self.enabled.then(Stopwatch::start)
    }

    fn add(&self, sw: Option<Stopwatch>) {
        if let Some(sw) = sw {
            self.nanos.fetch_add(sw.elapsed_nanos(), Ordering::Relaxed);
            self.cells.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The per-phase clocks of one costing batch (the ladder anchors, or one
/// band's flood).
struct Phases {
    seed_dp: PhaseClock,
    recost: PhaseClock,
    fallback_dp: PhaseClock,
    exact_dp: PhaseClock,
}

impl Phases {
    fn new(enabled: bool) -> Phases {
        Phases {
            seed_dp: PhaseClock::new(enabled),
            recost: PhaseClock::new(enabled),
            fallback_dp: PhaseClock::new(enabled),
            exact_dp: PhaseClock::new(enabled),
        }
    }

    /// Emit every phase that timed work as a synthetic span under the
    /// current parent.
    fn report(&self, tracer: &rqp_obs::Tracer) {
        use rqp_obs::names::{
            SPAN_POSP_EXACT_DP, SPAN_POSP_FALLBACK_DP, SPAN_POSP_RECOST, SPAN_POSP_SEED_DP,
        };
        for (clock, name) in [
            (&self.seed_dp, SPAN_POSP_SEED_DP),
            (&self.recost, SPAN_POSP_RECOST),
            (&self.fallback_dp, SPAN_POSP_FALLBACK_DP),
            (&self.exact_dp, SPAN_POSP_EXACT_DP),
        ] {
            let cells = clock.cells.load(Ordering::Relaxed);
            if cells > 0 {
                tracer.record_span(
                    name,
                    rqp_obs::SpanKind::CompilePhase,
                    clock.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                    vec![("cells", JsonValue::from(cells))],
                );
            }
        }
    }
}

/// Mutable compile state: which cells have been costed, which have been
/// flooded into a band, and which are parked above the compile cursor.
struct Frontier {
    /// Per-cell `(fingerprint, cost)` memo; `Some` once the cell has been
    /// costed (possibly only as a seed corner, without being banded).
    slot: Vec<Option<(Fingerprint, f64)>>,
    /// The contour set under construction. A cell is banded once it has
    /// entered the band machinery (frozen band, current wave, or parked);
    /// that is distinct from "costed": recost seed corners and oracle
    /// peeks cost cells without banding them, and the flood must still
    /// expand such cells when it reaches them. `bands` holds the frozen
    /// cell lists of the bands materialized so far.
    contours: ContourSet,
    /// Banded cells whose band lies above the materialized ones, waiting
    /// for the cursor to reach them.
    parked: Vec<Cell>,
    /// Plans discovered so far, ids in discovery order (canonicalized to
    /// first-seen-by-cell order only when the surface is finished).
    registry: PlanRegistry,
}

impl Frontier {
    fn new(ladder: Ladder, num_cells: usize) -> Frontier {
        Frontier {
            slot: vec![None; num_cells],
            contours: ContourSet::unbanded(ladder, num_cells),
            parked: Vec::new(),
            registry: PlanRegistry::new(),
        }
    }

    fn is_banded(&self, cell: Cell) -> bool {
        self.contours.band_of[cell] != ContourSet::UNBANDED
    }
}

/// A band-by-band ESS compiler. See the module docs for the invariants.
pub struct LazyEss {
    catalog: Arc<Catalog>,
    query: Arc<Query>,
    model: CostModel,
    grid: Grid,
    /// The contour ladder, anchored at the origin and terminus costs.
    ladder: Ladder,
    /// `Some(stride)` iff the effective mode is recost: the corner test
    /// enumerates `2^dims` seed-box corners, so past 8 dims (or for a
    /// stride ≤ 1) the compile degrades to exact.
    stride: Option<usize>,
    /// Seed marks per dimension (empty in exact mode).
    is_seed: Vec<Vec<bool>>,
    state: Mutex<Frontier>,
    /// The finished, canonicalized surface (error kept as text so the
    /// result is cloneable out of the cell).
    finished: OnceLock<Result<Arc<Ess>, String>>,
}

impl LazyEss {
    /// Start an anytime compile for the optimizer's query: builds the grid,
    /// costs only the origin and terminus cells (the ladder anchors) and
    /// parks them for the flood. Every later cell is costed with the same
    /// cost model as `optimizer`.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] for a bad contour ratio or a
    /// degenerate anchor cost surface, and propagates grid construction
    /// errors.
    pub fn begin(optimizer: &Optimizer<'_>, config: EssConfig) -> RqpResult<Arc<LazyEss>> {
        // The anchor DP is all the single-flight window of an anytime
        // compile covers, so it carries the compile span name (kind
        // Compile) for trace continuity with a full compile.
        let mut compile_span =
            rqp_obs::current().span(rqp_obs::names::SPAN_ESS_COMPILE, rqp_obs::SpanKind::Compile);
        compile_span.attr("query", optimizer.query().name.as_str());
        compile_span.attr("lazy", "anchors");
        let lazy = LazyEss::start(optimizer, config)?;
        compile_span.attr("grid_cells", lazy.grid.num_cells() as u64);
        compile_span.attr("contour_bands", lazy.ladder.num_bands() as u64);
        Ok(Arc::new(lazy))
    }

    /// [`LazyEss::begin`] without the compile span, for callers that
    /// already hold one.
    pub(crate) fn start(optimizer: &Optimizer<'_>, config: EssConfig) -> RqpResult<LazyEss> {
        let dims = optimizer.query().dims().max(1);
        let grid = Grid::uniform(dims, config.resolution, config.min_sel)?;
        let ratio = config.contour_ratio;
        // A one-band ladder stands in until the anchors are costed; building
        // it rejects a bad ratio before any optimizer call.
        let ladder = Ladder::new(1.0, 1.0, ratio)?;
        let stride = match config.mode {
            CompileMode::Recost { seed_stride } if seed_stride > 1 && dims <= 8 => {
                Some(seed_stride)
            }
            _ => None,
        };
        let is_seed = stride.map(|s| seed_marks(&grid, s)).unwrap_or_default();
        let mut this = LazyEss {
            catalog: Arc::new(optimizer.catalog().clone()),
            query: Arc::new(optimizer.query().clone()),
            model: optimizer.model(),
            grid,
            ladder: ladder.clone(),
            stride,
            is_seed,
            state: Mutex::new(Frontier::new(ladder.clone(), 0)),
            finished: OnceLock::new(),
        };

        let num_cells = this.grid.num_cells();
        let mut st = Frontier::new(ladder, num_cells);
        let mut anchors = vec![this.grid.origin(), this.grid.terminus()];
        anchors.dedup();
        let tracer = rqp_obs::current();
        let phases = Phases::new(tracer.is_enabled());
        this.cost_cells(&mut st, optimizer, &anchors, &phases);
        phases.report(&tracer);
        // `anchors` is `[origin, terminus]`, one cell on a one-cell grid
        let costs: Vec<f64> =
            anchors.iter().map(|&cell| st.slot[cell].map_or(f64::NAN, |(_, c)| c)).collect();
        this.ladder = Ladder::new(costs[0], costs[costs.len() - 1], ratio)?;
        st.contours = ContourSet::unbanded(this.ladder.clone(), num_cells);
        let top = this.ladder.num_bands() - 1;
        for (&cell, &cost) in anchors.iter().zip(&costs) {
            let band = this.ladder.band(cost).unwrap_or(top);
            st.contours.band_of[cell] = band as u32;
            st.parked.push(cell);
        }
        this.state = Mutex::new(st);
        Ok(this)
    }

    /// An optimizer over this surface's query and cost model.
    fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.catalog, &self.query, self.model)
    }

    /// The grid (fully known up front — laziness is per band, not per axis).
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The contour ladder (known up front from the anchors).
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Number of bands materialized so far.
    pub fn bands_compiled(&self) -> usize {
        self.state.lock().contours.bands.len()
    }

    /// Number of cells costed so far (bands, boundary layer, seed corners
    /// and oracle peeks) — the laziness measure the tests assert on.
    pub fn costed_cells(&self) -> usize {
        self.state.lock().slot.iter().filter(|s| s.is_some()).count()
    }

    /// Materialize every band up to and including `band` (clamped to the
    /// ladder). Single-flight: concurrent callers serialize on the
    /// frontier lock and whoever arrives second finds the bands done.
    pub fn compile_through(&self, band: usize) {
        self.compile_through_with(band, &self.optimizer());
    }

    /// [`LazyEss::compile_through`], costing cells with `opt` (which must
    /// plan this surface's query under its cost model).
    fn compile_through_with(&self, band: usize, opt: &Optimizer<'_>) {
        let target = band.min(self.ladder.num_bands() - 1);
        let mut st = self.state.lock();
        if st.contours.bands.len() > target {
            return;
        }
        let tracer = rqp_obs::current();
        while st.contours.bands.len() <= target {
            let k = st.contours.bands.len();
            let mut span =
                tracer.span(rqp_obs::names::SPAN_ESS_BAND_COMPILE, rqp_obs::SpanKind::CompilePhase);
            span.attr("band", k as u64);
            let phases = Phases::new(tracer.is_enabled());
            let members = self.flood_band(&mut st, opt, k, &phases);
            phases.report(&tracer);
            span.attr("cells", members.len() as u64);
            drop(span);
            st.contours.bands.push(Arc::new(members));
            crate::obs::metrics().bands_compiled.inc();
        }
    }

    /// Flood band `k`: expand parked band-`k` cells, costing `+1`
    /// neighbors; neighbors landing in band `k` join the wave, higher
    /// bands park. Returns `k`'s members ascending by cell index.
    fn flood_band(
        &self,
        st: &mut Frontier,
        opt: &Optimizer<'_>,
        k: usize,
        phases: &Phases,
    ) -> Vec<Cell> {
        let grid = &self.grid;
        let dims = grid.dims();
        let top = self.ladder.num_bands() - 1;
        let mut members: Vec<Cell> = Vec::new();
        let mut wave: Vec<Cell> = Vec::new();
        let mut still_parked = Vec::with_capacity(st.parked.len());
        for &c in &st.parked {
            if st.contours.band_of[c] as usize == k {
                wave.push(c);
            } else {
                still_parked.push(c);
            }
        }
        st.parked = still_parked;

        let mut coords = vec![0usize; dims];
        let mut fresh: Vec<Cell> = Vec::new();
        while !wave.is_empty() {
            members.extend_from_slice(&wave);
            fresh.clear();
            for &c in &wave {
                grid.coords_into(c, &mut coords);
                for d in 0..dims {
                    if coords[d] + 1 < grid.res(d) {
                        coords[d] += 1;
                        let n = grid.index(&coords);
                        coords[d] -= 1;
                        if !st.is_banded(n) {
                            fresh.push(n);
                        }
                    }
                }
            }
            fresh.sort_unstable();
            fresh.dedup();
            self.cost_cells(st, opt, &fresh, phases);
            wave.clear();
            for &n in &fresh {
                let cost = st.slot[n].map_or(f64::NAN, |(_, c)| c);
                // a cost with no band is charged the worst case
                let mut b = self.ladder.band(cost).unwrap_or(top);
                if b < k {
                    // only reachable when PCM is violated at a band edge by
                    // more than the cost_eq tolerance; fold the cell into
                    // the current band so the flood stays a down-set
                    debug_assert!(
                        cost_eq(cost, self.ladder.cc(k)),
                        "cell {n} banded below the flood cursor (cost {cost}, band {b} < {k})"
                    );
                    b = k;
                }
                st.contours.band_of[n] = b as u32;
                if b == k {
                    wave.push(n);
                } else {
                    st.parked.push(n);
                }
            }
        }
        members.sort_unstable();
        members
    }

    /// Cost every not-yet-costed cell in `cells` (ascending, distinct) by
    /// the per-cell protocol of the effective compile mode.
    fn cost_cells(&self, st: &mut Frontier, opt: &Optimizer<'_>, cells: &[Cell], phases: &Phases) {
        let grid = &self.grid;
        match self.stride {
            None => {
                let jobs: Vec<Cell> =
                    cells.iter().copied().filter(|&c| st.slot[c].is_none()).collect();
                let registry = &st.registry;
                let done: Vec<Costed> = jobs
                    .into_par_iter()
                    .map(|cell| dp_cell(opt, grid, registry, cell, &phases.exact_dp))
                    .collect();
                for costed in done {
                    record(st, costed);
                }
            }
            Some(stride) => self.cost_cells_recost(st, opt, cells, stride, phases),
        }
    }

    /// Recost-mode costing: DP any needed seed cells first (the cells
    /// themselves when on the sublattice, plus the seed-box corners of
    /// those that are not), then fill non-seed cells by corner agreement:
    /// recost the agreed plan, or DP the cell when the corners disagree.
    fn cost_cells_recost(
        &self,
        st: &mut Frontier,
        opt: &Optimizer<'_>,
        cells: &[Cell],
        stride: usize,
        phases: &Phases,
    ) {
        let grid = &self.grid;
        let dims = grid.dims();
        let metrics = crate::obs::metrics();
        let mut seed_jobs: Vec<Cell> = Vec::new();
        let mut fill_jobs: Vec<Cell> = Vec::new();
        let mut lo = vec![0usize; dims];
        let mut hi = vec![0usize; dims];
        let mut coords = vec![0usize; dims];
        for &cell in cells {
            if st.slot[cell].is_some() {
                continue;
            }
            if is_seed_cell(grid, &self.is_seed, cell) {
                seed_jobs.push(cell);
                continue;
            }
            fill_jobs.push(cell);
            seed_box(grid, &self.is_seed, stride, cell, &mut lo, &mut hi);
            for mask in 0u32..(1u32 << dims) {
                for d in 0..dims {
                    coords[d] = if mask & (1 << d) != 0 { hi[d] } else { lo[d] };
                }
                let corner = grid.index(&coords);
                if st.slot[corner].is_none() {
                    seed_jobs.push(corner);
                }
            }
        }
        seed_jobs.sort_unstable();
        seed_jobs.dedup();

        metrics.seed_cells.add(seed_jobs.len() as u64);
        let registry = &st.registry;
        let seeded: Vec<Costed> = seed_jobs
            .into_par_iter()
            .map(|cell| dp_cell(opt, grid, registry, cell, &phases.seed_dp))
            .collect();
        for costed in seeded {
            record(st, costed);
        }

        // fill pass: corners are all costed now; read-only over the memo
        let (slot, registry) = (&st.slot, &st.registry);
        let filled: Vec<Costed> = fill_jobs
            .par_iter()
            .map(|&cell| {
                let mut lo = vec![0usize; dims];
                let mut hi = vec![0usize; dims];
                let mut coords = vec![0usize; dims];
                seed_box(grid, &self.is_seed, stride, cell, &mut lo, &mut hi);
                let mut agreed: Option<Fingerprint> = None;
                let mut agree = true;
                'corners: for mask in 0u32..(1u32 << dims) {
                    for d in 0..dims {
                        coords[d] = if mask & (1 << d) != 0 { hi[d] } else { lo[d] };
                    }
                    match (slot[grid.index(&coords)], agreed) {
                        (Some((fp, _)), None) => agreed = Some(fp),
                        (Some((fp, _)), Some(first)) if fp == first => {}
                        _ => {
                            agree = false;
                            break 'corners;
                        }
                    }
                }
                if let (true, Some(first)) = (agree, agreed) {
                    if let Some(id) = registry.get(first) {
                        metrics.recost_cells.inc();
                        let sw = phases.recost.cell();
                        let cost = opt.cost_of(registry.plan(id), &grid.location(cell));
                        phases.recost.add(sw);
                        return (cell, first, None, cost);
                    }
                }
                metrics.recost_fallback_cells.inc();
                dp_cell(opt, grid, registry, cell, &phases.fallback_dp)
            })
            .collect();
        for costed in filled {
            record(st, costed);
        }
    }

    /// Cost one cell outside the flood (an oracle peek): memoized, does
    /// not band the cell, and never compiles a band.
    fn peek(&self, cell: Cell) -> (Fingerprint, f64) {
        let mut st = self.state.lock();
        if st.slot[cell].is_none() {
            self.cost_cells(&mut st, &self.optimizer(), &[cell], &Phases::new(false));
        }
        st.slot[cell].unwrap_or((Fingerprint(0), f64::NAN))
    }

    /// The optimal cost at a cell (costing it on demand if necessary —
    /// a single-cell peek, not a band compile).
    pub fn cost(&self, cell: Cell) -> f64 {
        self.peek(cell).1
    }

    /// The band a cell belongs to (costing it on demand if necessary).
    pub fn band_of(&self, cell: Cell) -> usize {
        let (_, cost) = self.peek(cell);
        self.ladder.band(cost).unwrap_or(self.ladder.num_bands() - 1)
    }

    /// The cells of `band`, compiling through it first if needed.
    /// Ascending by cell index, like [`ContourSet::cells`].
    pub fn band_cells(&self, band: usize) -> Arc<Vec<Cell>> {
        let band = band.min(self.ladder.num_bands() - 1);
        self.compile_through(band);
        self.state.lock().contours.cells_arc(band)
    }

    /// The optimal plan id at a cell, in the *lazy* registry's id space
    /// (stable within this surface; canonicalized only by [`finish`]).
    ///
    /// [`finish`]: LazyEss::finish
    pub fn plan_id_at(&self, cell: Cell) -> PlanId {
        let (fp, _) = self.peek(cell);
        self.state.lock().registry.get(fp).unwrap_or(PlanId(0))
    }

    /// The plan with a (lazy) id.
    pub fn plan(&self, id: PlanId) -> Arc<PlanNode> {
        Arc::clone(self.state.lock().registry.plan(id))
    }

    /// Cost of an arbitrary discovered plan at an arbitrary cell.
    pub fn plan_cost_at(&self, id: PlanId, cell: Cell) -> f64 {
        let plan = self.plan(id);
        self.optimizer().cost_of(&plan, &self.grid.location(cell))
    }

    /// All plan ids discovered so far (the pool grows as bands compile).
    pub fn plan_pool(&self) -> Vec<PlanId> {
        (0..self.state.lock().registry.len() as u32).map(PlanId).collect()
    }

    /// Flood the remaining bands with `opt` (the optimizer the compile
    /// started with) and assemble the complete POSP, plan ids assigned
    /// first-seen by cell index, together with the flood's contour set.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if some cell was left unbanded (a flood
    /// that cannot reach every cell from the origin) or has a cost with no
    /// band on the ladder (a degenerate cost the flood clamped).
    pub(crate) fn flood_all(&self, opt: &Optimizer<'_>) -> RqpResult<(Posp, ContourSet)> {
        self.compile_through_with(self.ladder.num_bands() - 1, opt);
        let st = self.state.lock();
        for (cell, slot) in st.slot.iter().enumerate() {
            let cost = slot.map_or(f64::NAN, |(_, c)| c);
            if !(st.is_banded(cell) && cost.is_finite() && cost > 0.0) {
                return Err(RqpError::Config(format!(
                    "cell {cell} (cost {cost}) has no place on the contour ladder \
                     after a completed flood"
                )));
            }
        }
        let posp =
            Posp::assemble(self.grid.clone(), st.slot.iter().flatten().copied(), &st.registry);
        Ok((posp, st.contours.clone()))
    }

    /// Complete the surface and canonicalize it into an [`Ess`]: flood the
    /// remaining bands and assemble the POSP; the flood's bands are its
    /// contours. The result is byte-identical to [`crate::Ess::compile`]
    /// under the same configuration.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the completed surface cannot be
    /// banded (degenerate costs that the lazy clamp tolerated).
    pub fn finish(&self) -> RqpResult<Arc<Ess>> {
        let out = self.finished.get_or_init(|| {
            let (posp, contours) = self.flood_all(&self.optimizer()).map_err(|e| e.to_string())?;
            Ok(Arc::new(Ess { posp, contours }))
        });
        match out {
            Ok(ess) => Ok(Arc::clone(ess)),
            Err(e) => Err(RqpError::Config(format!("lazy finish: {e}"))),
        }
    }
}

/// A costed cell: its plan's fingerprint, the plan itself when it was not
/// yet registered, and its cost.
type Costed = (Cell, Fingerprint, Option<PlanNode>, f64);

/// DP one cell. A plan `registry` already holds is dropped at once, so a
/// wave carries a plan tree only for the cells that found a new plan.
fn dp_cell(
    opt: &Optimizer<'_>,
    grid: &Grid,
    registry: &PlanRegistry,
    cell: Cell,
    clock: &PhaseClock,
) -> Costed {
    let sw = clock.cell();
    let planned = opt.optimize(&grid.location(cell));
    let fp = Fingerprint::of(&planned.plan);
    clock.add(sw);
    if registry.get(fp).is_some() {
        // another cell already compiled this exact plan
        crate::obs::metrics().memo_hits.inc();
        (cell, fp, None, planned.cost)
    } else {
        (cell, fp, Some(planned.plan), planned.cost)
    }
}

/// Store a costed cell in the frontier memo, registering its plan if it
/// carries one (cells of one batch can find the same new plan).
fn record(st: &mut Frontier, (cell, fp, plan, cost): Costed) {
    if let Some(plan) = plan {
        if st.registry.get(fp).is_some() {
            crate::obs::metrics().memo_hits.inc();
        } else {
            st.registry.insert(plan);
        }
    }
    st.slot[cell] = Some((fp, cost));
}

impl Drop for LazyEss {
    fn drop(&mut self) {
        // bands the surface never had to pay for — the whole point (none
        // when `start` failed before the frontier, and the ladder, existed)
        let st = self.state.get_mut();
        if !st.slot.is_empty() {
            let skipped = self.ladder.num_bands() - st.contours.bands.len();
            crate::obs::metrics().bands_skipped.add(skipped as u64);
        }
    }
}

impl std::fmt::Debug for LazyEss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("LazyEss")
            .field("query", &self.query.name)
            .field("num_bands", &self.ladder.num_bands())
            .field("bands_compiled", &st.contours.bands.len())
            .field("plans_discovered", &st.registry.len())
            .finish()
    }
}
