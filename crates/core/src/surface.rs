//! The shared surface handle: a compiled (or lazily compiling) ESS plus
//! the memo of contour decisions derived from it.
//!
//! In the paper everything derived from the ESS is offline work paid once
//! per query (§2.2, §7): the contours, their plans, and which plans to run
//! on each contour — PB's bouquet, SB's `P^j_max`, AB's aligned
//! partition. A [`SharedSurface`] carries those per-contour decisions next
//! to the surface they were derived from, so every session admitted on
//! one published handle reuses them, and they are freed with the surface.
//! Plan ids are surface-relative (eager surfaces number plans in
//! cell-index order, lazy surfaces in flood order); a memo owned by its
//! surface can never replay one surface's ids on another.

use crate::aligned::ContourDecision;
use crate::bouquet::BandPlans;
use crate::spillbound::{SpillList, StateKey};
use parking_lot::Mutex;
use rqp_ess::{Ess, LazyEss};
use rqp_obs::{global, names, Counter};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};

/// The surface a runtime executes against: either a finished [`Ess`]
/// (read without any lock) or a [`LazyEss`] that materializes contour
/// bands on demand behind its frontier mutex.
#[derive(Clone)]
pub(crate) enum Surface {
    /// A fully compiled surface.
    Eager(Arc<Ess>),
    /// A band-by-band anytime surface; bands above the compile frontier
    /// are costed only when something asks for them.
    Lazy(Arc<LazyEss>),
}

/// A compiled selectivity surface together with its contour-decision
/// memo. Clones share both: a band a lazy session materializes, and a
/// contour decision any session computes, serve every peer holding the
/// same handle. A new handle (see [`SharedSurface::eager`] /
/// [`SharedSurface::lazy`]) starts with an empty memo.
#[derive(Clone)]
pub struct SharedSurface {
    pub(crate) surface: Surface,
    pub(crate) memo: Arc<ContourMemo>,
}

impl SharedSurface {
    /// A handle on a finished surface, with an empty memo.
    pub fn eager(ess: Arc<Ess>) -> Self {
        SharedSurface { surface: Surface::Eager(ess), memo: Arc::default() }
    }

    /// A handle on an anytime surface, with an empty memo.
    pub fn lazy(lazy: Arc<LazyEss>) -> Self {
        SharedSurface { surface: Surface::Lazy(lazy), memo: Arc::default() }
    }

    /// The finished surface, if this handle holds one.
    pub fn as_eager(&self) -> Option<&Arc<Ess>> {
        match &self.surface {
            Surface::Eager(ess) => Some(ess),
            Surface::Lazy(_) => None,
        }
    }

    /// The anytime surface, if this handle holds one.
    pub fn as_lazy(&self) -> Option<&Arc<LazyEss>> {
        match &self.surface {
            Surface::Eager(_) => None,
            Surface::Lazy(lazy) => Some(lazy),
        }
    }
}

impl std::fmt::Debug for SharedSurface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.surface {
            Surface::Eager(_) => f.write_str("SharedSurface::Eager"),
            Surface::Lazy(lazy) => f.debug_tuple("SharedSurface::Lazy").field(lazy).finish(),
        }
    }
}

/// Contour decisions memoised per surface: SB's execution lists and AB's
/// partitions keyed by `(band, learnt coordinates)`, and raw PB's
/// per-band execution lists keyed by band. Every decision is a pure
/// function of the surface and its key, so sessions in any order and on
/// any thread read the same values a cold memo would compute.
///
/// Each map's lock is a leaf: a decision is computed outside it, because
/// computing one may pull a band from a lazy surface, which takes the
/// frontier mutex.
#[derive(Default)]
pub(crate) struct ContourMemo {
    pub(crate) sb: Mutex<HashMap<StateKey, SpillList>>,
    pub(crate) ab: Mutex<HashMap<StateKey, Arc<ContourDecision>>>,
    pub(crate) pb: Mutex<HashMap<usize, BandPlans>>,
}

/// The memo's hit and miss counters.
fn counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static COUNTERS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let g = global();
        (g.counter(names::CORE_CONTOUR_MEMO_HITS), g.counter(names::CORE_CONTOUR_MEMO_MISSES))
    })
}

/// Look `key` up, computing and publishing the value on a miss. Two
/// threads missing together both compute; the first to publish wins, so
/// every caller sees one value per key.
pub(crate) fn memoise<K: Hash + Eq, V>(
    map: &Mutex<HashMap<K, Arc<V>>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> Arc<V> {
    let (hits, misses) = counters();
    if let Some(v) = map.lock().get(&key) {
        hits.inc();
        return Arc::clone(v);
    }
    misses.inc();
    let v = Arc::new(compute());
    Arc::clone(map.lock().entry(key).or_insert(v))
}
