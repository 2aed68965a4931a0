//! Exhaustive banding parity: the contour set the band flood builds, for
//! every fixture at its coarse resolution in both compile modes, equals
//! the banding of the `ln`-seeded `band_index` it replaced, cell by cell.
//!
//! The reference below is that routine verbatim, applied the way the old
//! `ContourSet::build` applied it: anchored at the surface's minimum and
//! maximum cost, every cell banded independently and clamped into the top
//! band. The new ladder is anchored at the origin and terminus costs
//! instead, so the test also checks that those are the extrema. A
//! restore's after-the-fact banding (`ContourSet::build`) and a lazy
//! surface pulled band by band must agree with the eager flood too.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_ess::{CompileMode, ContourSet, Ess, EssConfig, LazyEss, Posp};
use rqp_optimizer::Optimizer;
use rqp_qplan::{cost_cmp, CostModel};
use rqp_workloads::{BenchQuery, Workload};
use std::cmp::Ordering;

/// Band index of cost `c` on the ladder `cmin · ratio^k`: a `ln` seed
/// settled against the exact `powi` edges with the workspace tolerance.
fn reference_band_index(c: f64, cmin: f64, ratio: f64) -> usize {
    assert!(c.is_finite() && c > 0.0, "cost {c} has no band");
    let raw = ((c / cmin).ln() / ratio.ln()).floor();
    let mut b = if raw.is_finite() && raw > 0.0 { raw as usize } else { 0 };
    while cost_cmp(c, cmin * ratio.powi(b as i32 + 1)) != Ordering::Less {
        b += 1;
    }
    while b > 0 && cost_cmp(c, cmin * ratio.powi(b as i32)) == Ordering::Less {
        b -= 1;
    }
    b
}

/// The reference banding of a surface: `(edges, band of each cell)`.
fn reference_bands(posp: &Posp, ratio: f64) -> (Vec<f64>, Vec<usize>) {
    let (cmin, cmax) = (posp.cmin(), posp.cmax());
    let m = reference_band_index(cmax, cmin, ratio) + 1;
    let edges = (0..m).map(|i| cmin * ratio.powi(i as i32)).collect();
    let band_of = posp
        .grid()
        .cells()
        .map(|cell| reference_band_index(posp.cost(cell), cmin, ratio).min(m - 1))
        .collect();
    (edges, band_of)
}

fn fixtures() -> Vec<(String, Workload)> {
    let mut out: Vec<(String, Workload)> =
        (2..=6).map(|d| (format!("{d}D_Q91"), Workload::q91(d).unwrap())).collect();
    out.push(("JOB_Q1a".to_string(), Workload::job_q1a().unwrap()));
    for &bq in BenchQuery::all() {
        out.push((format!("tpcds {}", bq.name()), Workload::tpcds(bq).unwrap()));
    }
    out
}

/// Every mismatch between two contour sets over the same grid.
fn contour_mismatches(
    what: &str,
    got: &ContourSet,
    want: &ContourSet,
    cells: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    if got.ladder() != want.ladder() {
        out.push(format!("{what}: ladder {:?} vs {:?}", got.ladder(), want.ladder()));
        return out;
    }
    if let Some(cell) = (0..cells).find(|&c| got.band_of(c) != want.band_of(c)) {
        out.push(format!(
            "{what}: cell {cell} in band {} vs {}",
            got.band_of(cell),
            want.band_of(cell)
        ));
    }
    if let Some(b) = (0..want.num_bands()).find(|&b| got.cells(b) != want.cells(b)) {
        out.push(format!("{what}: band {b} cell lists differ"));
    }
    out
}

fn check(name: &str, w: &Workload, mode: CompileMode) -> Vec<String> {
    let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
    let cfg = EssConfig { mode, ..EssConfig::coarse(w.query.dims()) };
    let ess = Ess::compile(&opt, cfg).unwrap();
    let (posp, contours) = (&ess.posp, &ess.contours);
    let grid = posp.grid();
    let cells = grid.num_cells();
    let tag = format!("{name} {mode:?}");
    let mut out = Vec::new();

    let (origin, terminus) = (posp.cost(grid.origin()), posp.cost(grid.terminus()));
    if origin.to_bits() != posp.cmin().to_bits() || terminus.to_bits() != posp.cmax().to_bits() {
        out.push(format!(
            "{tag}: anchors {origin}/{terminus} are not the extrema {}/{}",
            posp.cmin(),
            posp.cmax()
        ));
    }

    let (edges, band_of) = reference_bands(posp, cfg.contour_ratio);
    let ladder: Vec<u64> = (0..contours.num_bands()).map(|b| contours.cc(b).to_bits()).collect();
    if ladder != edges.iter().map(|e| e.to_bits()).collect::<Vec<_>>() {
        out.push(format!("{tag}: ladder edges {ladder:?} vs reference {edges:?}"));
        return out;
    }
    if let Some(cell) = (0..cells).find(|&c| contours.band_of(c) != band_of[c]) {
        out.push(format!(
            "{tag}: cell {cell} in band {} vs reference {}",
            contours.band_of(cell),
            band_of[cell]
        ));
    }
    for b in 0..edges.len() {
        let want: Vec<usize> = (0..cells).filter(|&c| band_of[c] == b).collect();
        if contours.cells(b) != want.as_slice() {
            out.push(format!("{tag}: band {b} cell list differs from the reference"));
        }
    }

    let restored = ContourSet::build(posp, cfg.contour_ratio).unwrap();
    out.extend(contour_mismatches(&format!("{tag} restore"), &restored, contours, cells));

    let lazy = LazyEss::begin(&opt, cfg).unwrap();
    if lazy.ladder() != contours.ladder() {
        out.push(format!("{tag}: lazy ladder differs"));
    } else if let Some(b) = (0..edges.len()).find(|&b| *lazy.band_cells(b) != contours.cells(b)) {
        out.push(format!("{tag}: lazy band {b} cells differ from the eager flood's"));
    }
    out
}

#[test]
fn flood_bands_equal_the_reference_banding_on_every_fixture() {
    let mut mismatches = Vec::new();
    for (name, w) in fixtures() {
        for mode in [CompileMode::Exact, CompileMode::Recost { seed_stride: 3 }] {
            mismatches.extend(check(&name, &w, mode));
        }
    }
    assert!(mismatches.is_empty(), "banding parity failed:\n{}", mismatches.join("\n"));
}
