//! The shared POSP registry: fingerprint-keyed, single-flight compiled
//! ESS surfaces shared across concurrent sessions, with per-fingerprint
//! circuit breakers, deadline-bounded waits and a persistent disk tier.
//!
//! Compiling an ESS is the expensive offline step of the paper (§7:
//! repeated optimizer calls over the whole grid); a serving deployment
//! sees the same query templates over and over, so N simultaneous
//! sessions for one fingerprint must trigger exactly **one** compile. The
//! registry guarantees that with a classic single-flight protocol:
//!
//! * first session for a fingerprint inserts a `Pending` marker, drops
//!   the registry lock, and compiles;
//! * peers arriving mid-compile block on the registry's condvar (counted
//!   as single-flight waits) — bounded by their session [`Deadline`]: a
//!   wedged peer compile costs a waiter at most its own deadline, never
//!   an unbounded hang;
//! * the finished surface is published as `Ready` and every waiter
//!   clones its `Arc` — the surface itself is never copied.
//!
//! Compile **failures open a circuit breaker** instead of poisoning the
//! fingerprint forever: a `Broken` entry refuses later sessions instantly
//! while its exponential-backoff window runs, then admits exactly one
//! half-open re-probe under the same single-flight discipline. A
//! transient failure (crash burst, injected chaos) therefore heals on its
//! own; only a deterministically-broken fingerprint stays open, and even
//! then each re-probe is one compile per backoff window, not one per
//! arrival. Because the compile runs outside the lock under a drop guard,
//! a compile that unwinds publishes `Broken` rather than wedging its
//! waiters — a chaotic session can never poison the shared registry.
//!
//! The caller's compile closure decides what is published. A finished
//! [`rqp_ess::Ess`] is the usual case. An anytime server publishes a
//! shared [`rqp_ess::LazyEss`] instead: the single-flight window shrinks
//! from the whole grid to just the ladder anchors, and each peer then
//! pulls (and waits on) only the contour bands its own discovery reaches —
//! a session terminating at contour `k` never waits for bands above `k`.
//! Either way the entry is a [`SharedSurface`] handle, so every session
//! served from it also shares the contour decisions (SB/AB/PB per-band
//! choices) earlier sessions memoised; a surface published anew — after a
//! wipe, a breaker re-probe or a disk restore — starts with an empty memo.
//!
//! When constructed [`EssRegistry::with_cache`], the registry adds a
//! **read-through / write-behind disk tier**: a miss first consults the
//! persistent [`CompileCache`] (restores count as [`Lookup::Restored`],
//! not compiles), and every fresh compile is written behind. A process
//! restart — or an explicit [`EssRegistry::wipe`] — therefore recovers
//! every previously-compiled fingerprint from disk with zero recompiles.

use crate::obs::metrics;
use rqp_catalog::{RqpError, RqpResult};
use rqp_chaos::{CompileFault, CompileFaultInjector, CompileSeam};
use rqp_core::SharedSurface;
use rqp_ess::{CompileCache, PospSnapshot};
use rqp_obs::Deadline;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How a [`EssRegistry::get_or_compile`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// This call compiled the surface (first session for the fingerprint).
    Compiled,
    /// The surface was already resident; served instantly.
    Hit,
    /// A peer was mid-compile; this call blocked until it published.
    Waited,
    /// The surface was restored from the persistent disk cache without a
    /// compile (warm-restart recovery path).
    Restored,
}

impl Lookup {
    /// Short stable label for reports and wire frames.
    pub fn label(self) -> &'static str {
        match self {
            Lookup::Compiled => "compiled",
            Lookup::Hit => "hit",
            Lookup::Waited => "waited",
            Lookup::Restored => "restored",
        }
    }

    /// Inverse of [`Lookup::label`] (wire decoding).
    pub fn from_label(label: &str) -> Option<Lookup> {
        match label {
            "compiled" => Some(Lookup::Compiled),
            "hit" => Some(Lookup::Hit),
            "waited" => Some(Lookup::Waited),
            "restored" => Some(Lookup::Restored),
            _ => None,
        }
    }
}

/// Circuit-breaker phase of one fingerprint, in `/healthz` and obs terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// The fingerprint compiled successfully; lookups are served.
    Closed,
    /// The last compile failed; lookups are refused until the backoff
    /// window elapses.
    Open,
    /// The backoff window elapsed; exactly one re-probe compile is in
    /// flight, everyone else is still refused.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable label for obs events and `/healthz`.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// Breaker tuning: how long an opened fingerprint backs off before its
/// half-open re-probe, and how far consecutive failures stretch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Backoff after the first failure; doubled per consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on the backoff window.
    pub backoff_max: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(10),
        }
    }
}

impl BreakerConfig {
    /// The backoff window after `failures` consecutive failures
    /// (`base * 2^(failures-1)`, capped at `backoff_max`).
    fn window(&self, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(16);
        self.backoff_base
            .checked_mul(1u32 << doublings)
            .map_or(self.backoff_max, |w| w.min(self.backoff_max))
    }
}

struct BreakerEntry {
    /// The failure that opened (or kept open) the breaker.
    error: RqpError,
    /// Consecutive compile failures for this fingerprint.
    failures: u32,
    /// When the next half-open re-probe is admitted (`retry_at - now` is
    /// the window currently in force).
    retry_at: Instant,
    /// A half-open re-probe compile is in flight right now.
    probing: bool,
}

enum Entry {
    /// A session is compiling this fingerprint right now.
    Pending,
    /// The published surface, shared by reference counting.
    Ready(SharedSurface),
    /// The compile failed; the breaker refuses lookups until `retry_at`,
    /// then admits one half-open re-probe.
    Broken(BreakerEntry),
}

/// Counter snapshot of a registry's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Compiles actually executed (first sessions plus breaker re-probes).
    pub compiles: u64,
    /// Lookups served by an already-resident surface (or refused by an
    /// open breaker).
    pub hits: u64,
    /// Lookups that blocked on a peer's in-flight compile.
    pub waits: u64,
    /// Surfaces restored from the persistent disk tier (zero compiles).
    pub disk_hits: u64,
    /// Breaker-open transitions (failures starting/extending a backoff).
    pub breaker_opens: u64,
    /// Half-open re-probes admitted after a backoff window elapsed.
    pub breaker_reprobes: u64,
    /// Breakers closed again by a successful re-probe.
    pub breaker_closes: u64,
    /// Lookups refused instantly by an open breaker.
    pub breaker_refused: u64,
    /// Waits that returned `DeadlineExpired` instead of blocking on.
    pub expired_waits: u64,
    /// Fingerprints currently resident (ready or broken).
    pub entries: usize,
}

impl std::ops::AddAssign for RegistryStats {
    /// Field-wise sum, for totals across registries (one per shard
    /// process).
    fn add_assign(&mut self, s: RegistryStats) {
        self.compiles += s.compiles;
        self.hits += s.hits;
        self.waits += s.waits;
        self.disk_hits += s.disk_hits;
        self.breaker_opens += s.breaker_opens;
        self.breaker_reprobes += s.breaker_reprobes;
        self.breaker_closes += s.breaker_closes;
        self.breaker_refused += s.breaker_refused;
        self.expired_waits += s.expired_waits;
        self.entries += s.entries;
    }
}

/// The phases a breaker moved through, in order (for drills and tests).
pub type BreakerTransition = (u64, BreakerPhase);

/// Per-fingerprint breaker state, as exported via `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerState {
    /// The fingerprint.
    pub fp: u64,
    /// Current phase.
    pub phase: BreakerPhase,
    /// Consecutive failures (0 when closed).
    pub failures: u32,
}

/// Publishes `Broken` if the compiling session unwinds before storing a
/// result, so waiters wake with an open breaker instead of blocking
/// forever (and the fingerprint stays re-probeable).
struct PendingGuard<'a> {
    reg: &'a EssRegistry,
    fp: u64,
    prior_failures: u32,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.reg.publish_broken(
                self.fp,
                self.prior_failures,
                RqpError::Internal("ESS compile aborted mid-flight".to_string()),
            );
        }
    }
}

/// What the lookup loop decided this caller must do.
#[derive(Clone, Copy)]
enum Claim {
    /// First session for the fingerprint: read through the disk tier,
    /// then compile.
    Fresh,
    /// Half-open re-probe: compile again after `prior_failures` failures.
    Probe { prior_failures: u32 },
}

impl Claim {
    fn prior_failures(&self) -> u32 {
        match *self {
            Claim::Fresh => 0,
            Claim::Probe { prior_failures } => prior_failures,
        }
    }
}

/// Outcome of the shared lookup loop: either a resident surface, or a
/// claim obliging this caller to produce one.
enum Found {
    /// A surface is resident; serve it.
    Resident(SharedSurface, Lookup),
    /// This caller owns the (re)compile for the fingerprint.
    Claimed(Claim),
}

/// A fingerprint-keyed map of compiled ESS surfaces with single-flight
/// compilation, circuit breaking and optional persistence.
///
/// One lock guards the map: its critical sections are a `HashMap` probe
/// or insert plus an `Arc` clone, never a compile, so sessions for
/// different fingerprints hold it only for that long.
pub struct EssRegistry {
    map: Mutex<HashMap<u64, Entry>>,
    /// Notified whenever an entry is published or the map is wiped.
    published: Condvar,
    cache: Option<CompileCache>,
    breaker: BreakerConfig,
    injector: Option<Arc<dyn CompileFaultInjector + Send + Sync>>,
    transitions: Mutex<Vec<BreakerTransition>>,
    compiles: AtomicU64,
    hits: AtomicU64,
    waits: AtomicU64,
    disk_hits: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_reprobes: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_refused: AtomicU64,
    expired_waits: AtomicU64,
}

/// Cap on the retained breaker-transition log (drills read it; a pathological
/// workload must not grow it without bound).
const MAX_TRANSITIONS: usize = 4096;

impl Default for EssRegistry {
    fn default() -> Self {
        EssRegistry::new()
    }
}

impl EssRegistry {
    /// An empty registry with no disk tier, default breaker tuning and no
    /// compile-seam injector.
    pub fn new() -> EssRegistry {
        EssRegistry {
            map: Mutex::new(HashMap::new()),
            published: Condvar::new(),
            cache: None,
            breaker: BreakerConfig::default(),
            injector: None,
            transitions: Mutex::new(Vec::new()),
            compiles: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_reprobes: AtomicU64::new(0),
            breaker_closes: AtomicU64::new(0),
            breaker_refused: AtomicU64::new(0),
            expired_waits: AtomicU64::new(0),
        }
    }

    /// Attach a persistent disk tier: misses read through it, compiles
    /// write behind it, and [`EssRegistry::wipe`] becomes recoverable.
    #[must_use]
    pub fn with_cache(mut self, cache: CompileCache) -> EssRegistry {
        self.cache = Some(cache);
        self
    }

    /// Override the circuit-breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> EssRegistry {
        self.breaker = breaker;
        self
    }

    /// Attach a compile-seam fault injector (chaos drills only).
    #[must_use]
    pub fn with_compile_injector(
        mut self,
        injector: Arc<dyn CompileFaultInjector + Send + Sync>,
    ) -> EssRegistry {
        self.injector = Some(injector);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note_transition(&self, fp: u64, phase: BreakerPhase) {
        let mut log = self.transitions.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() < MAX_TRANSITIONS {
            log.push((fp, phase));
        }
        drop(log);
        if rqp_obs::events_enabled() {
            rqp_obs::emit(
                rqp_obs::Event::new(rqp_obs::names::EV_BREAKER_TRANSITION)
                    .with("fingerprint", fp)
                    .with("phase", phase.label()),
            );
        }
    }

    /// Publish a `Broken` entry for `fp` after a compile failure (or
    /// unwind), stretching the backoff window per consecutive failure.
    fn publish_broken(&self, fp: u64, prior_failures: u32, error: RqpError) {
        let failures = prior_failures.saturating_add(1);
        let backoff = self.breaker.window(failures);
        self.lock().insert(
            fp,
            Entry::Broken(BreakerEntry {
                error,
                failures,
                retry_at: Instant::now() + backoff,
                probing: false,
            }),
        );
        self.published.notify_all();
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
        metrics().breaker_open.inc();
        self.note_transition(fp, BreakerPhase::Open);
    }

    /// Consult the compile-seam injector, physically corrupting the
    /// cached entry for `fp` when the schedule says so (the real
    /// quarantine path then runs end-to-end on load).
    fn strike_cache_load(&self, fp: u64) {
        let Some(injector) = &self.injector else { return };
        let Some(cache) = &self.cache else { return };
        match injector.inject(CompileSeam::CacheLoad) {
            Some(CompileFault::CorruptEntry) => {
                let path = cache.entry_path(fp);
                if path.exists() {
                    // rqp-lint: allow(swallowed-result): best-effort chaos corruption; a failed write just means no fault fired
                    let _ = std::fs::write(&path, "CORRUPTED-BY-CHAOS\n");
                }
            }
            Some(CompileFault::SlowIo { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            _ => {}
        }
    }

    /// Run the actual compile (whole-grid or anchor-only),
    /// letting the injector strike the compile seam first (panic,
    /// structured failure, or stall).
    fn run_compile<T>(&self, compile: impl FnOnce() -> RqpResult<T>) -> RqpResult<T> {
        if let Some(injector) = &self.injector {
            match injector.inject(CompileSeam::Compile) {
                #[allow(clippy::panic)]
                Some(CompileFault::Panic) => {
                    // rqp-lint: allow(no-panic): deterministic injected compile panic — exercises the drop-guard / breaker recovery path under seeded chaos schedules
                    panic!("injected compile panic (chaos schedule)")
                }
                Some(CompileFault::Fail) => {
                    return Err(RqpError::Internal(
                        "injected compile fault (chaos schedule)".to_string(),
                    ));
                }
                Some(CompileFault::SlowIo { millis }) => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                _ => {}
            }
        }
        compile()
    }

    /// Record the single-flight wait span, if this lookup waited.
    fn record_wait(&self, fp: u64, sw: Option<rqp_obs::Stopwatch>) {
        if let Some(sw) = sw {
            rqp_obs::current().record_span(
                rqp_obs::names::SPAN_REGISTRY_WAIT,
                rqp_obs::SpanKind::Wait,
                sw.elapsed_secs(),
                vec![("fingerprint", rqp_obs::JsonValue::from(fp))],
            );
        }
    }

    /// A successful re-probe closes the fingerprint's breaker.
    fn close_breaker(&self, fp: u64) {
        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
        metrics().breaker_close.inc();
        self.note_transition(fp, BreakerPhase::Closed);
    }

    /// The single-flight lookup loop: serve a resident surface, refuse through an open breaker, block on a peer's
    /// in-flight compile bounded by `deadline`, or claim the fingerprint
    /// for this caller (inserting `Pending` / marking the half-open
    /// probe before releasing the registry lock).
    fn resolve(
        &self,
        fp: u64,
        deadline: Deadline,
        wait_sw: &mut Option<rqp_obs::Stopwatch>,
    ) -> RqpResult<Found> {
        let m = metrics();
        let mut map = self.lock();
        let claim = loop {
            match map.get(&fp) {
                None => break Claim::Fresh,
                Some(Entry::Ready(surface)) => {
                    let surface = surface.clone();
                    drop(map);
                    let lookup = self.note_resident(wait_sw.is_some());
                    return Ok(Found::Resident(surface, lookup));
                }
                Some(Entry::Broken(b)) => {
                    if !b.probing && Instant::now() >= b.retry_at {
                        // backoff elapsed: this caller is the one half-open
                        // re-probe; everyone else keeps getting refused
                        break Claim::Probe { prior_failures: b.failures };
                    }
                    let err = RqpError::BreakerOpen {
                        retry_in_ms: b
                            .retry_at
                            .saturating_duration_since(Instant::now())
                            .as_millis() as u64,
                        cause: b.error.to_string(),
                    };
                    drop(map);
                    self.breaker_refused.fetch_add(1, Ordering::Relaxed);
                    m.breaker_refused.inc();
                    return Err(err);
                }
                Some(Entry::Pending) => {
                    if wait_sw.is_none() {
                        *wait_sw = Some(rqp_obs::Stopwatch::start());
                        self.waits.fetch_add(1, Ordering::Relaxed);
                        m.singleflight_waits.inc();
                    }
                    // Timed wait bounded by the session deadline: a wedged
                    // peer compile costs this waiter at most its own
                    // deadline, never an unbounded hang.
                    match deadline.remaining() {
                        None => {
                            map = self.published.wait(map).unwrap_or_else(PoisonError::into_inner);
                        }
                        Some(left) if left > Duration::ZERO => {
                            let (guard, _timeout) = self
                                .published
                                .wait_timeout(map, left)
                                .unwrap_or_else(PoisonError::into_inner);
                            map = guard;
                            if deadline.expired() {
                                drop(map);
                                self.expired_waits.fetch_add(1, Ordering::Relaxed);
                                m.wait_deadline_expired.inc();
                                return Err(RqpError::DeadlineExpired {
                                    phase: "registry wait".to_string(),
                                });
                            }
                        }
                        Some(_) => {
                            drop(map);
                            self.expired_waits.fetch_add(1, Ordering::Relaxed);
                            m.wait_deadline_expired.inc();
                            return Err(RqpError::DeadlineExpired {
                                phase: "registry wait".to_string(),
                            });
                        }
                    }
                }
            }
        };
        // This caller owns the (re)compile: claim the fingerprint (still
        // under the registry lock), then run outside it so peers of *other*
        // fingerprints keep flowing.
        match claim {
            Claim::Fresh => {
                map.insert(fp, Entry::Pending);
            }
            Claim::Probe { .. } => {
                if let Some(Entry::Broken(b)) = map.get_mut(&fp) {
                    b.probing = true;
                }
            }
        }
        drop(map);
        if let Claim::Probe { .. } = claim {
            self.breaker_reprobes.fetch_add(1, Ordering::Relaxed);
            m.breaker_reprobe.inc();
            self.note_transition(fp, BreakerPhase::HalfOpen);
        }
        Ok(Found::Claimed(claim))
    }

    /// Read-through the persistent tier under an armed claim: a restorable
    /// full snapshot publishes `Ready` and short-circuits the compile.
    fn try_restore(
        &self,
        fp: u64,
        claim: Claim,
        guard: &mut PendingGuard<'_>,
    ) -> Option<SharedSurface> {
        let cache = self.cache.as_ref()?;
        self.strike_cache_load(fp);
        let ess = Arc::new(cache.restore(fp)?);
        let surface = SharedSurface::eager(ess);
        let mut map = self.lock();
        guard.armed = false;
        map.insert(fp, Entry::Ready(surface.clone()));
        drop(map);
        self.published.notify_all();
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        metrics().registry_disk_hits.inc();
        if matches!(claim, Claim::Probe { .. }) {
            self.close_breaker(fp);
        }
        Some(surface)
    }

    /// Fetch the surface for `fp`, compiling it with `compile` if this is
    /// the first session to ask. Concurrent callers for the same
    /// fingerprint block until the one compile publishes — at most until
    /// `deadline` lapses. An open breaker refuses instantly with
    /// [`RqpError::BreakerOpen`]; once its backoff window elapses, exactly
    /// one caller re-probes. With a disk tier attached, misses first try
    /// to restore a finished surface from disk ([`Lookup::Restored`])
    /// before compiling, and a compile that returns a finished surface is
    /// written behind; an anytime surface is not.
    ///
    /// # Errors
    /// [`RqpError::DeadlineExpired`] if `deadline` lapsed while waiting on
    /// a peer; [`RqpError::BreakerOpen`] while a breaker refuses the
    /// fingerprint; otherwise the compile's own error (which opens the
    /// breaker).
    pub fn get_or_compile(
        &self,
        fp: u64,
        deadline: Deadline,
        compile: impl FnOnce() -> RqpResult<SharedSurface>,
    ) -> RqpResult<(SharedSurface, Lookup)> {
        let m = metrics();
        let mut wait_sw: Option<rqp_obs::Stopwatch> = None;
        let claim = match self.resolve(fp, deadline, &mut wait_sw) {
            Ok(Found::Resident(surface, lookup)) => {
                self.record_wait(fp, wait_sw);
                return Ok((surface, lookup));
            }
            Ok(Found::Claimed(claim)) => claim,
            Err(e) => {
                self.record_wait(fp, wait_sw);
                return Err(e);
            }
        };
        let prior_failures = claim.prior_failures();
        let mut guard = PendingGuard { reg: self, fp, prior_failures, armed: true };
        // Read-through: a fresh fingerprint (or a re-probe after cache
        // corruption) may be restorable from the persistent tier without
        // paying a compile at all — the warm-restart recovery path.
        if let Some(surface) = self.try_restore(fp, claim, &mut guard) {
            self.record_wait(fp, wait_sw);
            return Ok((surface, Lookup::Restored));
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        m.registry_misses.inc();
        let result = self.run_compile(compile);
        guard.armed = false;
        let out = match result {
            Ok(surface) => {
                self.lock().insert(fp, Entry::Ready(surface.clone()));
                self.published.notify_all();
                if matches!(claim, Claim::Probe { .. }) {
                    self.close_breaker(fp);
                }
                // Write-behind: persist outside every lock; a store failure
                // only costs the next restart a recompile.
                if let (Some(cache), Some(ess)) = (&self.cache, surface.as_eager()) {
                    // rqp-lint: allow(swallowed-result): best-effort write-behind persistence; a store failure only costs a recompile
                    let _ = cache.store(fp, &PospSnapshot::capture(ess));
                }
                Ok((surface, Lookup::Compiled))
            }
            Err(e) => {
                self.publish_broken(fp, prior_failures, e.clone());
                Err(e)
            }
        };
        self.record_wait(fp, wait_sw);
        out
    }

    fn note_resident(&self, waited: bool) -> Lookup {
        let m = metrics();
        if waited {
            Lookup::Waited
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            m.registry_hits.inc();
            Lookup::Hit
        }
    }

    /// Drop every in-memory entry (the crash-recovery drill's "process
    /// restart"). Counters and the breaker-transition log survive; with a
    /// disk tier attached, previously-compiled fingerprints restore from
    /// disk on their next lookup with zero recompiles. In-flight compiles
    /// are unaffected: they republish their entry when they finish. Lazy
    /// anytime surfaces are dropped like any other entry — sessions
    /// already holding the `Arc` keep pulling bands, but the next lookup
    /// starts fresh.
    pub fn wipe(&self) {
        self.lock().clear();
        self.published.notify_all();
    }

    /// Lifetime counters plus the resident-entry count.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_reprobes: self.breaker_reprobes.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            breaker_refused: self.breaker_refused.load(Ordering::Relaxed),
            expired_waits: self.expired_waits.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Current breaker phase of every resident fingerprint (for
    /// `/healthz` and drills), sorted by fingerprint for stable output.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        let mut out = Vec::new();
        for (&fp, entry) in self.lock().iter() {
            let (phase, failures) = match entry {
                Entry::Ready(_) => (BreakerPhase::Closed, 0),
                Entry::Pending => continue,
                Entry::Broken(b) => (
                    if b.probing { BreakerPhase::HalfOpen } else { BreakerPhase::Open },
                    b.failures,
                ),
            };
            out.push(BreakerState { fp, phase, failures });
        }
        out.sort_by_key(|s| s.fp);
        out
    }

    /// The ordered breaker-phase transition log (capped; drills assert
    /// exact sequences against it).
    pub fn breaker_transitions(&self) -> Vec<BreakerTransition> {
        self.transitions.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of resident fingerprints (ready or broken).
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether no fingerprint is resident yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_ess::{Ess, EssConfig, LazyEss};
    use rqp_optimizer::Optimizer;
    use rqp_qplan::CostModel;
    use rqp_workloads::Workload;

    fn compile_example() -> RqpResult<SharedSurface> {
        let w = Workload::q91(2)?;
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
        let ess =
            Ess::compile_cached(&opt, EssConfig { resolution: 6, ..Default::default() }, None)?;
        Ok(SharedSurface::eager(Arc::new(ess)))
    }

    /// A breaker config with a backoff short enough for tests but long
    /// enough that an un-slept test never crosses it by accident.
    fn test_breaker() -> BreakerConfig {
        BreakerConfig {
            backoff_base: Duration::from_millis(40),
            backoff_max: Duration::from_secs(2),
        }
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_surface() {
        let reg = EssRegistry::new();
        let (a, l1) = reg.get_or_compile(42, Deadline::none(), compile_example).unwrap();
        let (b, l2) =
            reg.get_or_compile(42, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert_eq!(l2, Lookup::Hit);
        let (Some(a), Some(b)) = (a.as_eager(), b.as_eager()) else {
            panic!("expected two finished surfaces");
        };
        assert!(Arc::ptr_eq(a, b));
        let stats = reg.stats();
        assert_eq!((stats.compiles, stats.hits, stats.entries), (1, 1, 1));
    }

    #[test]
    fn failures_open_the_breaker_and_refuse_within_backoff() {
        let reg = EssRegistry::new().with_breaker(test_breaker());
        let boom = || Err(RqpError::Config("no".into()));
        assert!(reg.get_or_compile(7, Deadline::none(), boom).is_err());
        // inside the backoff window: refused instantly, no recompile
        let err = reg.get_or_compile(7, Deadline::none(), || panic!("must not retry")).unwrap_err();
        match err {
            RqpError::BreakerOpen { cause, .. } => assert!(cause.contains("no"), "{cause}"),
            other => panic!("expected BreakerOpen, got {other}"),
        }
        let stats = reg.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.breaker_refused, 1);
    }

    #[test]
    fn the_breaker_reprobes_after_backoff_and_closes_on_success() {
        let reg = EssRegistry::new().with_breaker(test_breaker());
        assert!(reg
            .get_or_compile(11, Deadline::none(), || Err(RqpError::Config("transient".into())))
            .is_err());
        std::thread::sleep(Duration::from_millis(60));
        // backoff elapsed: this lookup is the half-open re-probe and heals
        // the fingerprint
        let (_, lookup) = reg.get_or_compile(11, Deadline::none(), compile_example).unwrap();
        assert_eq!(lookup, Lookup::Compiled);
        let stats = reg.stats();
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.breaker_reprobes, 1);
        assert_eq!(stats.breaker_closes, 1);
        let phases: Vec<_> =
            reg.breaker_transitions().into_iter().map(|(_, p)| p.label()).collect();
        assert_eq!(phases, vec!["open", "half_open", "closed"]);
        // and later sessions hit the healed surface
        let (_, l2) =
            reg.get_or_compile(11, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l2, Lookup::Hit);
    }

    #[test]
    fn consecutive_failures_stretch_the_backoff_exponentially() {
        let cfg = test_breaker();
        assert_eq!(cfg.window(1), Duration::from_millis(40));
        assert_eq!(cfg.window(2), Duration::from_millis(80));
        assert_eq!(cfg.window(3), Duration::from_millis(160));
        assert_eq!(cfg.window(30), Duration::from_secs(2), "capped at backoff_max");
    }

    #[test]
    fn a_panicking_compile_opens_the_breaker_instead_of_wedging() {
        let reg = Arc::new(EssRegistry::new().with_breaker(test_breaker()));
        let r2 = Arc::clone(&reg);
        let h = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = r2.get_or_compile(9, Deadline::none(), || panic!("chaotic compile"));
            }));
        });
        h.join().unwrap();
        // The guard opened the breaker; later sessions get a structured
        // refusal, not a hang — and the fingerprint can heal.
        let err = reg.get_or_compile(9, Deadline::none(), || panic!("must not retry")).unwrap_err();
        match err {
            RqpError::BreakerOpen { cause, .. } => assert!(cause.contains("aborted"), "{cause}"),
            other => panic!("expected BreakerOpen, got {other}"),
        }
        std::thread::sleep(Duration::from_millis(60));
        let (_, lookup) = reg.get_or_compile(9, Deadline::none(), compile_example).unwrap();
        assert_eq!(lookup, Lookup::Compiled);
    }

    #[test]
    fn a_stalled_peer_compile_cannot_block_a_waiter_past_its_deadline() {
        let reg = Arc::new(EssRegistry::new());
        let r2 = Arc::clone(&reg);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let compiler = std::thread::spawn(move || {
            let _ = r2.get_or_compile(5, Deadline::none(), move || {
                // deliberately stalled compile: holds Pending until released
                let _ = release_rx.recv();
                compile_example()
            });
        });
        // give the compiler time to claim Pending
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let err = reg
            .get_or_compile(5, Deadline::within(Duration::from_millis(100)), || {
                panic!("waiter must not compile")
            })
            .unwrap_err();
        let waited = started.elapsed();
        assert!(
            matches!(err, RqpError::DeadlineExpired { .. }),
            "expected DeadlineExpired, got {err}"
        );
        assert!(
            waited < Duration::from_secs(2),
            "timed wait should return promptly, took {waited:?}"
        );
        assert_eq!(reg.stats().expired_waits, 1);
        release_tx.send(()).unwrap();
        compiler.join().unwrap();
        // once the stalled compile finally publishes, lookups are hits
        let (_, lookup) =
            reg.get_or_compile(5, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(lookup, Lookup::Hit);
    }

    fn begin_example() -> RqpResult<SharedSurface> {
        let w = Workload::q91(2)?;
        let opt = Optimizer::new(&w.catalog, &w.query, CostModel::default());
        let lazy = LazyEss::begin(&opt, EssConfig { resolution: 6, ..Default::default() })?;
        Ok(SharedSurface::lazy(lazy))
    }

    #[test]
    fn lazy_lookups_share_one_anytime_surface() {
        let reg = EssRegistry::new();
        let (s1, l1) = reg.get_or_compile(21, Deadline::none(), begin_example).unwrap();
        let (s2, l2) =
            reg.get_or_compile(21, Deadline::none(), || panic!("must not begin again")).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert_eq!(l2, Lookup::Hit);
        let (Some(a), Some(b)) = (s1.as_lazy(), s2.as_lazy()) else {
            panic!("expected two lazy surfaces");
        };
        assert!(Arc::ptr_eq(a, b), "peers must share one frontier");
        // nothing beyond the anchors was compiled just by publishing
        assert_eq!(a.bands_compiled(), 0);
        // a peer pulling band 1 materializes bands 0..=1 for everyone
        b.compile_through(1);
        assert!(a.bands_compiled() >= 2);
        assert!(a.bands_compiled() < a.ladder().num_bands(), "upper bands stay unmaterialized");
    }

    #[test]
    fn only_finished_surfaces_are_written_behind() {
        let dir = std::env::temp_dir().join(format!("rqp-reg-behind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = EssRegistry::new().with_cache(CompileCache::new(&dir).unwrap());
        let entries = || std::fs::read_dir(&dir).map_or(0, |d| d.count());
        let (_, l1) = reg.get_or_compile(41, Deadline::none(), begin_example).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        assert_eq!(entries(), 0, "an anytime surface is not persisted");
        let (_, l2) = reg.get_or_compile(43, Deadline::none(), compile_example).unwrap();
        assert_eq!(l2, Lookup::Compiled);
        assert_eq!(entries(), 1, "a finished surface is written behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wipe_clears_lazy_entries() {
        let reg = EssRegistry::new();
        let (s, _) = reg.get_or_compile(31, Deadline::none(), begin_example).unwrap();
        assert_eq!(reg.len(), 1);
        reg.wipe();
        assert!(reg.is_empty());
        // a session that already held the Arc keeps working after the wipe
        if let Some(lazy) = s.as_lazy() {
            lazy.compile_through(0);
            assert!(lazy.bands_compiled() >= 1);
        }
        // and the next lazy lookup begins fresh
        let (_, l) = reg.get_or_compile(31, Deadline::none(), begin_example).unwrap();
        assert_eq!(l, Lookup::Compiled);
    }

    #[test]
    fn wipe_recovers_from_the_disk_tier_with_zero_recompiles() {
        let dir = std::env::temp_dir().join(format!("rqp-reg-wipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CompileCache::new(&dir).unwrap();
        let reg = EssRegistry::new().with_cache(cache);
        let (_, l1) = reg.get_or_compile(3, Deadline::none(), compile_example).unwrap();
        assert_eq!(l1, Lookup::Compiled);
        let compiles_before = reg.stats().compiles;

        reg.wipe();
        assert!(reg.is_empty());
        let (_, l2) =
            reg.get_or_compile(3, Deadline::none(), || panic!("must not recompile")).unwrap();
        assert_eq!(l2, Lookup::Restored, "post-wipe lookup must restore from disk");
        let stats = reg.stats();
        assert_eq!(stats.compiles, compiles_before, "zero recompiles after the wipe");
        assert_eq!(stats.disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
