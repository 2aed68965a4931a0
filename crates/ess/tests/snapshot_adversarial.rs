//! Adversarial-input sweeps over the one snapshot decoder.
//!
//! Every damaged snapshot — truncated at any byte, one byte replaced from
//! the JSON sweeps' hostile palette or rotted to another digit, written in
//! the older text format, or well-sealed but of the wrong shape — must
//! decode to a structured `RqpError::Snapshot`, never a panic. Through
//! `CompileCache::load` every damaged entry is a miss quarantined to
//! `<name>.corrupt`; through `CompileCache::restore` so is every entry that
//! decodes but does not restore, and each quarantine is counted in
//! `rqp_ess_cache_corrupt_total`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder, RqpError};
use rqp_ess::{compile_fingerprint, CompileCache, Ess, EssConfig, PospSnapshot};
use rqp_optimizer::Optimizer;
use rqp_qplan::{CostModel, StableHasher};
use std::sync::Mutex;

/// Serialises the tests that quarantine entries, so each can read its own
/// movement of the process-wide `rqp_ess_cache_corrupt_total` counter.
static QUARANTINES: Mutex<()> = Mutex::new(());

/// `json_adversarial`'s palette: control bytes, structural JSON
/// characters, DEL, and bytes that break UTF-8.
const PALETTE: [u8; 9] = [0x00, 0x1f, b'"', b'\\', b'{', b']', 0x7f, 0xc3, 0xff];

/// An entry written by the earlier line/token cache format for a 1-epp
/// 4-point surface. No decoder for it is kept: it must be a clean miss.
const OLD_FORMAT_ENTRY: &str = "rqp-posp-cache v2
fingerprint 544e974f290012af
dims 1
axis 4 3ee4f8b588e368f1 3f3e6b4b396428dc 3f960fb8a566f623 3ff0000000000000
plans 1
plan H 1 0 S 0 0 S 1 0
cell_plan 4 0 0 0 0
cell_cost 4 4131c32000000000 41840ba2dc05268f 41dce5abfd41d61f 4234f46f0b800000
contour_ratio 4000000000000000
quarantined 0
end
checksum 9eff3e62818912a1
";

/// A small real surface (1 epp, 6 points) and its compile fingerprint.
fn surface() -> (u64, PospSnapshot) {
    let rel = |name, rows| RelationBuilder::new(name, rows).indexed_column("k", 1_000_000, 8);
    let catalog = CatalogBuilder::new()
        .relation(rel("a", 1_000_000).build())
        .relation(rel("b", 9_000_000).build())
        .build();
    let query = QueryBuilder::new(&catalog, "t")
        .table("a")
        .table("b")
        .epp_join("a", "k", "b", "k")
        .build()
        .unwrap();
    let config = EssConfig { resolution: 6, ..Default::default() };
    let ess =
        Ess::compile(&Optimizer::new(&catalog, &query, CostModel::default()), config).unwrap();
    (
        compile_fingerprint(&catalog, &query, &CostModel::default(), &config),
        PospSnapshot::capture(&ess),
    )
}

/// Every proper prefix of `bytes`, and every single-byte change of it to a
/// palette byte or, for a digit, to the next digit (bit rot that keeps the
/// JSON well-formed, which only the checksum catches).
fn damaged(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = (0..bytes.len())
        .map(|cut| (format!("prefix of {cut} bytes"), bytes[..cut].to_vec()))
        .collect();
    for (i, &b) in bytes.iter().enumerate() {
        let rot = b.is_ascii_digit().then(|| b'0' + (b - b'0' + 1) % 10);
        for evil in PALETTE.into_iter().chain(rot).filter(|&evil| evil != b) {
            let mut m = bytes.to_vec();
            m[i] = evil;
            out.push((format!("byte {i} set to {evil:#04x}"), m));
        }
    }
    out
}

fn assert_snapshot_error(bytes: &[u8], what: &str) {
    match PospSnapshot::decode(bytes) {
        Err(RqpError::Snapshot(_)) => {}
        other => panic!("{what}: expected a snapshot error, got {:?}", other.map(|(fp, _)| fp)),
    }
}

#[test]
fn damaged_snapshots_are_structured_errors() {
    let (fp, snap) = surface();
    for (what, bytes) in damaged(snap.encode(fp).as_bytes()) {
        assert_snapshot_error(&bytes, &what);
    }
    assert_snapshot_error(OLD_FORMAT_ENTRY.as_bytes(), "old-format entry");
}

#[test]
fn well_sealed_nonsense_is_a_structured_error() {
    // A valid checksum over a payload of the wrong shape gets past the
    // checksum; the field decoding must still refuse it cleanly.
    let sealed = |payload: &str| {
        let body = format!("{payload}\n");
        let mut h = StableHasher::new();
        h.write_bytes(body.as_bytes());
        format!("{body}checksum {:016x}\n", h.finish()).into_bytes()
    };
    let (fp, snap) = surface();
    let text = snap.encode(fp);
    let payload = text.lines().next().unwrap();
    for (field, bad) in [
        (r#""format":"rqp-posp-snapshot-v2""#, r#""format":"rqp-posp-snapshot-v1""#),
        (r#""fingerprint":""#, r#""fingerprint":"zz"#),
        (r#""axes":[["#, r#""axes":[[-1,"#),
        (r#""axes":[["#, r#""axes":[[1.5,"#),
        (r#""cell_plan":["#, r#""cell_plan":[4294967296,"#),
        (r#""cell_cost":["#, r#""cell_cost":["x","#),
        (r#""plans":[""#, r#""plans":["Q "#),
        (r#""plans":[""#, r#""plans":["S 1 0 "#),
        (r#""contour_ratio":"#, r#""contour_ratio":-"#),
    ] {
        assert!(payload.contains(field), "{field}");
        assert_snapshot_error(&sealed(&payload.replacen(field, bad, 1)), bad);
    }
    for bad in ["", "[]", "{}"] {
        assert_snapshot_error(&sealed(bad), bad);
    }
    // every damaged payload, re-sealed: decode and restore may accept one
    // that still describes a surface, but answer the rest with errors; an
    // entry that decodes but does not restore is a counted quarantine
    let _serial = QUARANTINES.lock().unwrap_or_else(|e| e.into_inner());
    let corrupt = rqp_obs::global().counter(rqp_obs::names::ESS_CACHE_CORRUPT);
    let dir = std::env::temp_dir().join(format!("rqp-snapshot-resealed-{}", std::process::id()));
    let cache = CompileCache::new(&dir).unwrap();
    let mut unrestorable = 0;
    for (what, bytes) in damaged(payload.as_bytes()) {
        let Ok(mutated) = String::from_utf8(bytes) else { continue };
        let entry = sealed(&mutated);
        match PospSnapshot::decode(&entry) {
            Ok((recorded, snap)) => {
                let Err(e) = snap.restore() else { continue };
                assert!(matches!(e, RqpError::Snapshot(_) | RqpError::Config(_)), "{e:?}");
                unrestorable += 1;
                let path = cache.entry_path(recorded);
                let quarantined = path.with_extension("rqpc.corrupt");
                std::fs::write(&path, &entry).unwrap();
                let before = corrupt.get();
                assert!(cache.restore(recorded).is_none(), "{what}: unrestorable entry restored");
                assert_eq!(corrupt.get(), before + 1, "{what}: quarantine not counted");
                assert!(!path.exists(), "{what}: unrestorable entry left in place");
                assert!(quarantined.exists(), "{what}: unrestorable entry not quarantined");
                std::fs::remove_file(&quarantined).unwrap();
            }
            Err(e) => assert!(matches!(e, RqpError::Snapshot(_)), "{e:?}"),
        }
    }
    assert!(unrestorable > 0, "the sweep must reach restore's own checks");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_cache_entries_are_quarantined_misses() {
    let _serial = QUARANTINES.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("rqp-snapshot-adversarial-{}", std::process::id()));
    let cache = CompileCache::new(&dir).unwrap();
    let (fp, snap) = surface();
    cache.store(fp, &snap).unwrap();
    let bytes = std::fs::read(cache.entry_path(fp)).unwrap();
    assert!(cache.load(fp).is_some(), "the intact entry loads");
    let old = (0x544e_974f_2900_12af, ("old format".to_string(), OLD_FORMAT_ENTRY.into()));
    for (fp, (what, bytes)) in damaged(&bytes).into_iter().map(|d| (fp, d)).chain([old]) {
        let path = cache.entry_path(fp);
        let corrupt = path.with_extension("rqpc.corrupt");
        std::fs::write(&path, bytes).unwrap();
        assert!(cache.load(fp).is_none(), "{what}: damaged entry loaded");
        assert!(!path.exists(), "{what}: damaged entry left in place");
        assert!(corrupt.exists(), "{what}: damaged entry not quarantined");
        std::fs::remove_file(&corrupt).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
