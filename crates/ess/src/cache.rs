//! Persistent compile cache: on-disk POSP snapshots keyed by a stable
//! fingerprint of everything the compiled surface depends on.
//!
//! ESS compilation is the dominant preprocessing cost of the whole approach
//! (§7: "repeated invocations of the optimizer"), and benches, chaos sweeps
//! and CLI runs recompile identical surfaces from scratch. This module
//! amortizes that: [`compile_fingerprint`] digests the catalog statistics,
//! the query, the [`CostModel`] constants and the [`EssConfig`] into a
//! version-stable 64-bit key ([`StableHasher`], FNV-1a — `DefaultHasher`
//! makes no cross-version promise), and [`CompileCache`] stores one
//! [`PospSnapshot`] per key in a directory, in the snapshot module's one
//! checksummed format ([`PospSnapshot::encode`]). Any input change produces
//! a new key, so a stored entry can never be served for a surface it does
//! not describe. An entry whose *recorded* fingerprint disagrees with its
//! file name (manual tampering, partial copy), whose trailing FNV-1a
//! checksum disagrees with its payload (bit rot, torn write), or that
//! fails to decode (including entries in an older format) or to restore
//! to a valid surface ([`CompileCache::restore`]) is invalidated
//! on load — **quarantined** to `<name>.corrupt` (counted by
//! `rqp_ess_cache_corrupt_total`) rather than silently deleted, so
//! operators keep the evidence while the rebuilt surface replaces the
//! entry.
//!
//! A cache is always an explicit handle: callers that want one pass it to
//! [`crate::Ess::compile_cached`]; there is no process-wide cache.

use crate::posp::CompileMode;
use crate::snapshot::PospSnapshot;
use crate::{Ess, EssConfig};
use rqp_catalog::{Catalog, Query, RqpError, RqpResult};
use rqp_qplan::{CostModel, StableHasher};
use std::path::{Path, PathBuf};

/// Stable fingerprint of a compile's inputs: catalog statistics, logical
/// query, cost-model constants and ESS configuration.
pub fn compile_fingerprint(
    catalog: &Catalog,
    query: &Query,
    model: &CostModel,
    config: &EssConfig,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("rqp-ess-cache-v1");

    h.write_usize(catalog.len());
    for (_, rel) in catalog.iter() {
        h.write_str(&rel.name);
        h.write_u64(rel.rows);
        h.write_usize(rel.columns.len());
        for col in &rel.columns {
            h.write_str(&col.name);
            h.write_u64(col.ndv);
            h.write_u32(col.width);
            h.write_bool(col.indexed);
            h.write_f64(col.skew);
        }
    }

    h.write_str(&query.name);
    h.write_usize(query.relations.len());
    for r in &query.relations {
        h.write_u32(r.0);
    }
    h.write_usize(query.joins.len());
    for j in &query.joins {
        h.write_u32(j.id.0);
        h.write_u32(j.left.rel.0);
        h.write_usize(j.left.col);
        h.write_u32(j.right.rel.0);
        h.write_usize(j.right.col);
    }
    h.write_usize(query.filters.len());
    for f in &query.filters {
        h.write_u32(f.id.0);
        h.write_u32(f.col.rel.0);
        h.write_usize(f.col.col);
        h.write_f64(f.selectivity);
    }
    h.write_usize(query.epps.len());
    for e in &query.epps {
        h.write_u32(e.0);
    }
    h.write_usize(query.group_by.len());
    for g in &query.group_by {
        h.write_u32(g.rel.0);
        h.write_usize(g.col);
    }

    let p = model.params;
    for v in
        [p.seq_page, p.rand_page, p.cpu_tuple, p.cpu_index, p.cpu_oper, p.mem_pages, p.btree_fanout]
    {
        h.write_f64(v);
    }

    h.write_usize(config.resolution);
    h.write_f64(config.min_sel);
    h.write_f64(config.contour_ratio);
    match config.mode {
        CompileMode::Exact => h.write_u8(0),
        CompileMode::Recost { seed_stride } => {
            h.write_u8(1);
            h.write_usize(seed_stride);
        }
    }
    h.finish()
}

/// An on-disk cache of compiled POSP snapshots, one file per fingerprint.
#[derive(Debug, Clone)]
pub struct CompileCache {
    dir: PathBuf,
}

impl CompileCache {
    /// Open (creating if necessary) a cache rooted at `dir`.
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> RqpResult<CompileCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            RqpError::Config(format!("unusable cache directory {}: {e}", dir.display()))
        })?;
        Ok(CompileCache { dir })
    }

    /// The file the entry for `fp` lives in: `<dir>/posp-<fp as 16 hex>.rqpc`.
    pub fn entry_path(&self, fp: u64) -> PathBuf {
        self.dir.join(format!("posp-{fp:016x}.rqpc"))
    }

    /// Load the snapshot cached under `fp`, if present and valid. An entry
    /// whose recorded fingerprint no longer matches, whose checksum
    /// disagrees with its payload, or that fails to decode counts as a
    /// miss and is quarantined to `<name>.corrupt` so the rebuilt surface
    /// can replace it while the bad bytes stay inspectable.
    pub fn load(&self, fp: u64) -> Option<PospSnapshot> {
        let path = self.entry_path(fp);
        let bytes = std::fs::read(&path).ok()?;
        let decoded = PospSnapshot::decode(&bytes).and_then(|(recorded, snap)| {
            if recorded == fp {
                Ok(snap)
            } else {
                Err(RqpError::Snapshot(format!(
                    "fingerprint mismatch: entry {recorded:016x}, wanted {fp:016x}"
                )))
            }
        });
        match decoded {
            Ok(snap) => Some(snap),
            Err(e) => {
                self.quarantine(&path, &e);
                None
            }
        }
    }

    /// Load and restore the surface cached under `fp`. An entry that
    /// decodes but does not restore to a valid surface is quarantined and
    /// counted like any other damaged entry, so it is never silently
    /// re-read as a plain miss.
    pub fn restore(&self, fp: u64) -> Option<Ess> {
        match self.load(fp)?.restore() {
            Ok(ess) => Some(ess),
            Err(e) => {
                self.quarantine(&self.entry_path(fp), &e);
                None
            }
        }
    }

    /// Move a corrupt entry aside to `<name>.corrupt` (falling back to
    /// deletion if the rename fails) and account it.
    fn quarantine(&self, path: &Path, err: &RqpError) {
        let corrupt = path.with_extension("rqpc.corrupt");
        if std::fs::rename(path, &corrupt).is_err() {
            // rqp-lint: allow(swallowed-result): best-effort eviction when the quarantine rename itself fails (e.g. read-only dir)
            let _ = std::fs::remove_file(path);
        }
        crate::obs::metrics().cache_corrupt.inc();
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_CACHE_QUARANTINE)
                    .with("path", path.display().to_string())
                    .with("error", err.to_string()),
            );
        }
    }

    /// Persist a snapshot under `fp` (written to a temporary file and
    /// renamed into place, so readers never observe a partial entry).
    ///
    /// # Errors
    /// Returns [`RqpError::Config`] if the entry cannot be written.
    pub fn store(&self, fp: u64, snap: &PospSnapshot) -> RqpResult<()> {
        let text = snap.encode(fp);
        let path = self.entry_path(fp);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path)).map_err(|e| {
            RqpError::Config(format!("cannot write cache entry {}: {e}", path.display()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ess, EssConfig};
    use rqp_catalog::{CatalogBuilder, QueryBuilder, RelationBuilder};
    use rqp_optimizer::Optimizer;

    fn fixture() -> (rqp_catalog::Catalog, rqp_catalog::Query) {
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
        (catalog, query)
    }

    /// A fresh cache under `tag` holding the fixture's surface at
    /// `resolution`: `(dir, cache, fingerprint, snapshot)`.
    fn stored(tag: &str, resolution: usize) -> (PathBuf, CompileCache, u64, PospSnapshot) {
        let (catalog, query) = fixture();
        let opt = Optimizer::new(&catalog, &query, CostModel::default());
        let config = EssConfig { resolution, ..Default::default() };
        let snap = PospSnapshot::capture(&Ess::compile(&opt, config).unwrap());
        let dir = std::env::temp_dir().join(format!("rqp-cache-{tag}-{}", std::process::id()));
        let cache = CompileCache::new(&dir).unwrap();
        let fp = compile_fingerprint(&catalog, &query, &CostModel::default(), &config);
        cache.store(fp, &snap).unwrap();
        (dir, cache, fp, snap)
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let (catalog, query) = fixture();
        let model = CostModel::default();
        let config = EssConfig::default();
        let base = compile_fingerprint(&catalog, &query, &model, &config);
        // deterministic
        assert_eq!(base, compile_fingerprint(&catalog, &query, &model, &config));
        // config change
        let coarse = EssConfig { resolution: config.resolution + 1, ..config };
        assert_ne!(base, compile_fingerprint(&catalog, &query, &model, &coarse));
        let exact = EssConfig { mode: CompileMode::Exact, ..config };
        assert_ne!(base, compile_fingerprint(&catalog, &query, &model, &exact));
        // cost-model change
        let mut params = model.params;
        params.rand_page += 0.5;
        let other_model = CostModel::new(params);
        assert_ne!(base, compile_fingerprint(&catalog, &query, &other_model, &config));
        // catalog change (one extra row in relation "a")
        let bigger = CatalogBuilder::new()
            .relation(
                RelationBuilder::new("a", 1_000_001).indexed_column("k", 1_000_000, 8).build(),
            )
            .relation(
                RelationBuilder::new("b", 9_000_000).indexed_column("k", 1_000_000, 8).build(),
            )
            .build();
        assert_ne!(base, compile_fingerprint(&bigger, &query, &model, &config));
    }

    #[test]
    fn store_load_roundtrip_is_byte_identical() {
        let (dir, cache, fp, snap) = stored("test", 12);

        let back = cache.load(fp).expect("entry should load");
        assert_eq!(back.cell_plan, snap.cell_plan);
        assert_eq!(
            back.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            snap.cell_cost.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            "cell costs must round-trip byte-identically"
        );
        assert_eq!(back.plans, snap.plans);
        assert_eq!(back.contour_ratio.to_bits(), snap.contour_ratio.to_bits());

        // unknown fingerprints miss
        assert!(cache.load(fp ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entries_are_invalidated() {
        let (dir, cache, fp, snap) = stored("tamper", 8);

        // replace the entry with one recorded under a different key (a
        // valid checksum, so only the recorded fingerprint can catch it):
        // the mismatch must invalidate it — quarantined aside, not deleted
        let path = cache.entry_path(fp);
        let corrupt = path.with_extension("rqpc.corrupt");
        cache.store(fp ^ 0xff, &snap).unwrap();
        std::fs::rename(cache.entry_path(fp ^ 0xff), &path).unwrap();
        assert!(cache.load(fp).is_none());
        assert!(!path.exists(), "stale entry should have been moved aside");
        assert!(corrupt.exists(), "stale entry should be quarantined as .corrupt");

        // garbage decodes to a miss too
        cache.store(fp, &snap).unwrap();
        std::fs::write(&path, "{\"format\":\"rqp-posp-snapshot-v2\",\"fingerprint\":zzzz").unwrap();
        assert!(cache.load(fp).is_none());
        assert!(corrupt.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_rot_is_caught_by_the_checksum() {
        let (dir, cache, fp, _) = stored("rot", 8);

        // flip one digit inside a cost's bit pattern (fingerprint intact):
        // only the checksum can catch this
        let path = cache.entry_path(fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let cost_at = bytes.windows(11).position(|w| w == b"\"cell_cost\"").unwrap();
        let digit_at = cost_at + 13;
        assert!(bytes[digit_at].is_ascii_digit(), "expected a digit of the first cost");
        bytes[digit_at] = if bytes[digit_at] == b'4' { b'5' } else { b'4' };
        std::fs::write(&path, bytes).unwrap();

        assert!(cache.load(fp).is_none(), "rotted entry must not load");
        assert!(path.with_extension("rqpc.corrupt").exists(), "rotted entry should be quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
