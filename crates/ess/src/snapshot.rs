//! Offline ESS compilation snapshots and their one persistence format.
//!
//! Contour construction is the expensive preprocessing step of the whole
//! approach ("for canned queries, it may be feasible to carry out an
//! offline enumeration", §7). This module captures a compiled [`Posp`] —
//! grid, plan registry and the optimal plan/cost per cell — and owns the
//! only byte format it is persisted in, shared by the compile cache
//! (`posp-<fingerprint>.rqpc`) and `rqp compile --out`:
//!
//! ```text
//! {"axes":[[<bits>,..],..],"cell_cost":[<bits>,..],"cell_plan":[0,..],
//!  "contour_ratio":<bits>,"fingerprint":"<16 hex>","format":"rqp-posp-snapshot-v2",
//!  "plans":["H 1 0 S 1 0 S 2 0",..]}
//! checksum <16 hex>
//! ```
//!
//! The first line is one compact `rqp_obs::json` object (wrapped above for
//! reading). Every float is its `f64::to_bits` pattern as a JSON integer,
//! so a restored surface is bit-identical to the compile that produced
//! it. Plans are token strings (`plan_to_text`). The fingerprint is the
//! [`crate::compile_fingerprint`] of the compile. The last line is the
//! FNV-1a digest ([`StableHasher`]) of every byte before it; [`PospSnapshot::decode`]
//! verifies it before parsing anything, so a torn write or a flipped bit is
//! rejected wholesale.

use crate::contours::ContourSet;
use crate::grid::Grid;
use crate::posp::Posp;
use crate::registry::{PlanId, PlanRegistry};
use crate::Ess;
use rqp_catalog::{ColRef, PredId, RelId, RqpError, RqpResult};
use rqp_obs::json::{self, JsonValue};
use rqp_qplan::{PlanNode, StableHasher};
use std::fmt::Write as _;

/// Format tag written into every snapshot.
const FORMAT: &str = "rqp-posp-snapshot-v2";
/// Prefix of the trailing checksum line.
const CHECKSUM: &str = "checksum ";
/// Upper bound on a decoded predicate/group list length, so a hostile
/// plan string cannot provoke a huge allocation.
const MAX_LEN: usize = 1 << 16;
/// Plans nest about one level per join; this bounds the recursion a
/// hostile token string can drive.
const MAX_PLAN_DEPTH: usize = 128;

fn bad(msg: impl std::fmt::Display) -> RqpError {
    RqpError::Snapshot(format!("bad snapshot: {msg}"))
}

/// The serialized form of a compiled POSP.
#[derive(Debug, Clone)]
pub struct PospSnapshot {
    /// The grid.
    pub grid: Grid,
    /// Distinct plans, indexed by `PlanId`.
    pub plans: Vec<PlanNode>,
    /// Optimal plan id per cell.
    pub cell_plan: Vec<u32>,
    /// Optimal cost per cell.
    pub cell_cost: Vec<f64>,
    /// Contour cost ratio the snapshot was built with.
    pub contour_ratio: f64,
}

impl PospSnapshot {
    /// Capture a compiled ESS.
    pub fn capture(ess: &Ess) -> PospSnapshot {
        let posp = &ess.posp;
        PospSnapshot {
            grid: posp.grid().clone(),
            plans: posp.registry().iter().map(|(_, p)| (**p).clone()).collect(),
            cell_plan: posp.grid().cells().map(|c| posp.plan_id(c).0).collect(),
            cell_cost: posp.grid().cells().map(|c| posp.cost(c)).collect(),
            contour_ratio: ess.contours.ratio,
        }
    }

    /// Restore the ESS (POSP + contours) from the snapshot, banding its
    /// cells with [`ContourSet::build`] on the ladder anchored at the
    /// origin and terminus costs.
    ///
    /// # Errors
    /// Returns [`RqpError::Snapshot`] if the snapshot is internally
    /// inconsistent, and [`RqpError::Config`] if its costs do not fit the
    /// anchored ladder (a cell cheaper than the origin or dearer than the
    /// terminus, which no compile writes).
    pub fn restore(self) -> RqpResult<Ess> {
        let bad = |msg: String| Err(RqpError::Snapshot(msg));
        // a `Grid` is valid by construction (`Grid::from_axes`)
        let grid = self.grid;
        let cells = grid.num_cells();
        if self.cell_plan.len() != cells || self.cell_cost.len() != cells {
            return bad(format!(
                "snapshot cell arrays ({} / {}) do not match grid ({cells})",
                self.cell_plan.len(),
                self.cell_cost.len()
            ));
        }
        if self.contour_ratio <= 1.0 {
            return bad(format!("invalid contour ratio {}", self.contour_ratio));
        }
        let mut registry = PlanRegistry::new();
        for (i, plan) in self.plans.into_iter().enumerate() {
            let id = registry.insert(plan);
            if id != PlanId(i as u32) {
                return bad(format!("duplicate plan at snapshot index {i}"));
            }
        }
        let nplans = registry.len() as u32;
        let mut cell_plan = Vec::with_capacity(cells);
        for (&id, &cost) in self.cell_plan.iter().zip(&self.cell_cost) {
            if id >= nplans {
                return bad(format!("cell references unknown plan P{}", id + 1));
            }
            if !cost.is_finite() || cost <= 0.0 {
                return bad(format!("invalid cell cost {cost}"));
            }
            cell_plan.push(PlanId(id));
        }
        let posp = Posp::from_parts(grid, registry, cell_plan, self.cell_cost);
        let contours = ContourSet::build(&posp, self.contour_ratio)?;
        Ok(Ess { posp, contours })
    }

    fn axes(&self) -> Vec<Vec<f64>> {
        (0..self.grid.dims())
            .map(|d| (0..self.grid.res(d)).map(|i| self.grid.value(d, i)).collect())
            .collect()
    }

    /// Encode the snapshot, recording the compile `fingerprint` it was
    /// built under, in the format described in the module docs.
    pub fn encode(&self, fingerprint: u64) -> String {
        let bits = |vals: &[f64]| {
            JsonValue::Array(vals.iter().map(|v| JsonValue::from(v.to_bits())).collect())
        };
        let mut m = json::Map::new();
        m.insert("format".into(), JsonValue::from(FORMAT));
        m.insert("fingerprint".into(), JsonValue::from(format!("{fingerprint:016x}")));
        m.insert("axes".into(), JsonValue::Array(self.axes().iter().map(|a| bits(a)).collect()));
        m.insert(
            "plans".into(),
            JsonValue::Array(self.plans.iter().map(|p| JsonValue::Str(plan_to_text(p))).collect()),
        );
        m.insert(
            "cell_plan".into(),
            JsonValue::Array(self.cell_plan.iter().map(|&id| JsonValue::from(id)).collect()),
        );
        m.insert("cell_cost".into(), bits(&self.cell_cost));
        m.insert("contour_ratio".into(), JsonValue::from(self.contour_ratio.to_bits()));
        let mut out = JsonValue::Object(m).to_json();
        out.push('\n');
        let sum = checksum(out.as_bytes());
        let _ = writeln!(out, "{CHECKSUM}{sum:016x}");
        out
    }

    /// Decode a snapshot written by [`PospSnapshot::encode`], returning the
    /// fingerprint it records alongside it. The checksum line is verified
    /// before any byte of the payload is parsed.
    ///
    /// # Errors
    /// Returns [`RqpError::Snapshot`] on a missing or mismatched checksum,
    /// malformed JSON, an unknown format tag, or a field of the wrong
    /// shape. Never panics on hostile input.
    pub fn decode(bytes: &[u8]) -> RqpResult<(u64, PospSnapshot)> {
        let body = bytes.strip_suffix(b"\n").ok_or_else(|| bad("truncated: no final newline"))?;
        let at = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let (payload, line) = body.split_at(at);
        let recorded = std::str::from_utf8(line)
            .ok()
            .and_then(|l| l.strip_prefix(CHECKSUM))
            .filter(|hex| hex.len() == 16)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| bad("missing checksum line"))?;
        let actual = checksum(payload);
        if recorded != actual {
            return Err(bad(format!(
                "checksum mismatch: recorded {recorded:016x}, payload {actual:016x}"
            )));
        }

        let v = json::parse_bytes(payload).map_err(bad)?;
        if v["format"].as_str() != Some(FORMAT) {
            return Err(bad(format!("unknown format {:?}", v["format"].as_str())));
        }
        let fingerprint = v["fingerprint"]
            .as_str()
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| bad("fingerprint is not a hex string"))?;
        let array =
            |key: &str| v[key].as_array().ok_or_else(|| bad(format!("{key} is not an array")));
        let f64_bits = |x: &JsonValue| {
            x.as_u64().map(f64::from_bits).ok_or_else(|| bad("float is not a u64 bit pattern"))
        };
        let axes = array("axes")?
            .iter()
            .map(|a| {
                a.as_array()
                    .ok_or_else(|| bad("axis is not an array"))?
                    .iter()
                    .map(f64_bits)
                    .collect()
            })
            .collect::<RqpResult<Vec<Vec<f64>>>>()?;
        let grid = Grid::from_axes(axes).map_err(|e| bad(format!("bad grid: {e}")))?;
        let plans = array("plans")?
            .iter()
            .map(|p| plan_from_text(p.as_str().ok_or_else(|| bad("plan is not a string"))?))
            .collect::<RqpResult<Vec<_>>>()?;
        let cell_plan = array("cell_plan")?
            .iter()
            .map(|x| {
                x.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("cell_plan entry is not a u32"))
            })
            .collect::<RqpResult<Vec<_>>>()?;
        let cell_cost = array("cell_cost")?.iter().map(f64_bits).collect::<RqpResult<Vec<_>>>()?;
        let contour_ratio = f64_bits(&v["contour_ratio"])?;
        Ok((fingerprint, PospSnapshot { grid, plans, cell_plan, cell_cost, contour_ratio }))
    }
}

/// FNV-1a digest of the bytes before the checksum line.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

fn tok(out: &mut String, t: impl std::fmt::Display) {
    let _ = write!(out, " {t}");
}

fn encode_pred_list(preds: &[PredId], out: &mut String) {
    tok(out, preds.len());
    for p in preds {
        tok(out, p.0);
    }
}

fn encode_group_list(groups: &[ColRef], out: &mut String) {
    tok(out, groups.len());
    for g in groups {
        tok(out, g.rel.0);
        tok(out, g.col);
    }
}

fn encode_plan(p: &PlanNode, out: &mut String) {
    match p {
        PlanNode::SeqScan { rel, filters } => {
            tok(out, "S");
            tok(out, rel.0);
            encode_pred_list(filters, out);
        }
        PlanNode::IndexScan { rel, sarg, filters } => {
            tok(out, "I");
            tok(out, rel.0);
            tok(out, sarg.0);
            encode_pred_list(filters, out);
        }
        PlanNode::Sort { input } => {
            tok(out, "O");
            encode_plan(input, out);
        }
        PlanNode::HashJoin { build, probe, preds } => {
            tok(out, "H");
            encode_pred_list(preds, out);
            encode_plan(build, out);
            encode_plan(probe, out);
        }
        PlanNode::MergeJoin { left, right, preds } => {
            tok(out, "M");
            encode_pred_list(preds, out);
            encode_plan(left, out);
            encode_plan(right, out);
        }
        PlanNode::NestLoop { outer, inner, preds } => {
            tok(out, "N");
            encode_pred_list(preds, out);
            encode_plan(outer, out);
            encode_plan(inner, out);
        }
        PlanNode::HashAggregate { input, groups } => {
            tok(out, "A");
            encode_group_list(groups, out);
            encode_plan(input, out);
        }
        PlanNode::SortAggregate { input, groups } => {
            tok(out, "G");
            encode_group_list(groups, out);
            encode_plan(input, out);
        }
        PlanNode::IndexNestLoop { outer, inner_rel, lookup, preds, inner_filters } => {
            tok(out, "X");
            tok(out, inner_rel.0);
            tok(out, lookup.0);
            encode_pred_list(preds, out);
            encode_pred_list(inner_filters, out);
            encode_plan(outer, out);
        }
    }
}

/// One plan as a space-separated token string, e.g. `"H 1 0 S 1 0 S 2 0"`:
/// an operator letter, its scalar fields and list lengths, then its
/// inputs in prefix order.
fn plan_to_text(p: &PlanNode) -> String {
    let mut s = String::new();
    encode_plan(p, &mut s);
    s.trim_start().to_string()
}

/// Inverse of [`plan_to_text`]; rejects trailing tokens.
///
/// # Errors
/// Returns [`RqpError::Snapshot`] on an unknown operator, a malformed or
/// implausible number, or a truncated or over-long token string.
fn plan_from_text(text: &str) -> RqpResult<PlanNode> {
    let mut t = text.split_whitespace();
    let p = decode_plan(&mut t, 0)?;
    if t.next().is_some() {
        return Err(bad("trailing tokens after plan"));
    }
    Ok(p)
}

type Toks<'a> = std::str::SplitWhitespace<'a>;

fn num<T: std::str::FromStr>(t: &mut Toks<'_>) -> RqpResult<T> {
    let s = t.next().ok_or_else(|| bad("truncated plan"))?;
    s.parse().map_err(|_| bad(format!("bad number {s:?} in plan")))
}

fn len(t: &mut Toks<'_>) -> RqpResult<usize> {
    let n: usize = num(t)?;
    if n > MAX_LEN {
        return Err(bad(format!("implausible length {n} in plan")));
    }
    Ok(n)
}

fn decode_pred_list(t: &mut Toks<'_>) -> RqpResult<Vec<PredId>> {
    let n = len(t)?;
    (0..n).map(|_| num(t).map(PredId)).collect()
}

fn decode_group_list(t: &mut Toks<'_>) -> RqpResult<Vec<ColRef>> {
    let n = len(t)?;
    (0..n).map(|_| Ok(ColRef::new(RelId(num(t)?), num(t)?))).collect()
}

fn decode_plan(t: &mut Toks<'_>, depth: usize) -> RqpResult<PlanNode> {
    if depth > MAX_PLAN_DEPTH {
        return Err(bad("plan nests too deep"));
    }
    let input = |t: &mut Toks<'_>| decode_plan(t, depth + 1).map(Box::new);
    match t.next().ok_or_else(|| bad("truncated plan"))? {
        "S" => Ok(PlanNode::SeqScan { rel: RelId(num(t)?), filters: decode_pred_list(t)? }),
        "I" => Ok(PlanNode::IndexScan {
            rel: RelId(num(t)?),
            sarg: PredId(num(t)?),
            filters: decode_pred_list(t)?,
        }),
        "O" => Ok(PlanNode::Sort { input: input(t)? }),
        "H" => {
            let preds = decode_pred_list(t)?;
            Ok(PlanNode::HashJoin { build: input(t)?, probe: input(t)?, preds })
        }
        "M" => {
            let preds = decode_pred_list(t)?;
            Ok(PlanNode::MergeJoin { left: input(t)?, right: input(t)?, preds })
        }
        "N" => {
            let preds = decode_pred_list(t)?;
            Ok(PlanNode::NestLoop { outer: input(t)?, inner: input(t)?, preds })
        }
        "A" => {
            let groups = decode_group_list(t)?;
            Ok(PlanNode::HashAggregate { input: input(t)?, groups })
        }
        "G" => {
            let groups = decode_group_list(t)?;
            Ok(PlanNode::SortAggregate { input: input(t)?, groups })
        }
        "X" => {
            let inner_rel = RelId(num(t)?);
            let lookup = PredId(num(t)?);
            let preds = decode_pred_list(t)?;
            let inner_filters = decode_pred_list(t)?;
            Ok(PlanNode::IndexNestLoop {
                outer: input(t)?,
                inner_rel,
                lookup,
                preds,
                inner_filters,
            })
        }
        other => Err(bad(format!("unknown plan op {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EssConfig;
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;

    fn compiled() -> Ess {
        let catalog = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 9_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        let query = QueryBuilder::new(&catalog, "t")
            .table("a")
            .table("b")
            .epp_join("a", "k", "b", "k")
            .build()
            .unwrap();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        Ess::compile(&opt, EssConfig { resolution: 12, ..Default::default() }).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ess = compiled();
        let text = PospSnapshot::capture(&ess).encode(0xfeed);
        let (fp, snap) = PospSnapshot::decode(text.as_bytes()).unwrap();
        assert_eq!(fp, 0xfeed);
        let restored = snap.restore().unwrap();
        assert_eq!(restored.grid().num_cells(), ess.grid().num_cells());
        assert_eq!(restored.posp.num_plans(), ess.posp.num_plans());
        assert_eq!(restored.contours.num_bands(), ess.contours.num_bands());
        assert_eq!(restored.contours.ratio.to_bits(), ess.contours.ratio.to_bits());
        for cell in ess.grid().cells() {
            assert_eq!(restored.posp.plan_id(cell), ess.posp.plan_id(cell));
            assert_eq!(restored.posp.cost(cell).to_bits(), ess.posp.cost(cell).to_bits());
            assert_eq!(restored.contours.band_of(cell), ess.contours.band_of(cell));
        }
        for (id, plan) in ess.posp.registry().iter() {
            assert_eq!(**restored.posp.registry().plan(id), **plan);
        }
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let ess = compiled();
        let mut snap = PospSnapshot::capture(&ess);
        snap.cell_cost[0] = -1.0;
        assert!(snap.clone().restore().unwrap_err().to_string().contains("invalid cell cost"));
        snap.cell_cost[0] = 1.0;
        snap.cell_plan[0] = 999;
        assert!(snap.clone().restore().unwrap_err().to_string().contains("unknown plan"));
        snap.cell_plan.pop();
        assert!(snap.restore().unwrap_err().to_string().contains("do not match grid"));
        let err = PospSnapshot::decode(b"{oops\nchecksum 0000000000000000\n").unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn resealed_surface_cheaper_than_its_origin_is_quarantined() {
        // No compile writes a cell cheaper than the origin (PCM puts the
        // minimum there), so such a surface is refused, not clamped.
        let mut snap = PospSnapshot::capture(&compiled());
        let origin = snap.grid.origin();
        let interior = snap.grid.index(&[snap.grid.res(0) / 2]);
        snap.cell_cost[interior] = snap.cell_cost[origin] / 4.0;
        let entry = snap.encode(0xbad);
        let (fp, decoded) = PospSnapshot::decode(entry.as_bytes()).unwrap();
        let err = decoded.restore().unwrap_err();
        assert!(matches!(err, RqpError::Config(_)), "{err:?}");
        assert!(err.to_string().contains("plan-cost monotonicity"), "{err}");

        let dir = std::env::temp_dir().join(format!("rqp-snapshot-pcm-{}", std::process::id()));
        let cache = crate::CompileCache::new(&dir).unwrap();
        let path = cache.entry_path(fp);
        std::fs::write(&path, &entry).unwrap();
        let corrupt = &crate::obs::metrics().cache_corrupt;
        let before = corrupt.get();
        assert!(cache.restore(fp).is_none(), "a refused surface must not restore");
        assert!(corrupt.get() > before, "quarantine not counted");
        assert!(!path.exists());
        assert!(path.with_extension("rqpc.corrupt").exists(), "entry not quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_text_rejects_hostile_strings() {
        for bad in ["", "S", "S 1", "S 1 99999999999", "H 0 S 1 0", "Z", "S 1 0 extra"] {
            assert!(plan_from_text(bad).is_err(), "{bad:?}");
        }
        let deep = "O ".repeat(10_000) + "S 1 0";
        assert!(plan_from_text(&deep).unwrap_err().to_string().contains("deep"));
    }
}
