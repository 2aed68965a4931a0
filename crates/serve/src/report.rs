//! Aggregated serving results: session-level MSO/ASO over the shared
//! registry, plus throughput and latency percentiles.

use crate::registry::{Lookup, RegistryStats};
use crate::session::{SessionOutcome, SessionResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Everything a drained [`crate::Server`] leaves behind.
#[derive(Debug)]
pub struct ServeReport {
    /// Every session's record, in session-id order after
    /// [`crate::serve_workload`] (worker completion order from a raw
    /// [`crate::Server::drain`]).
    pub results: Vec<SessionResult>,
    /// Shared-registry counters (compiles, hits, single-flight waits).
    pub registry: RegistryStats,
    /// Sessions that were still queued when the drain began (all finished
    /// gracefully before shutdown).
    pub drained: usize,
    /// Wall-clock from server start to the end of the drain.
    pub wall: Duration,
}

/// Session-level aggregate for one (query, algorithm) group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupStats {
    /// Workload name.
    pub query: String,
    /// Algorithm token.
    pub algo: String,
    /// Sessions whose discovery produced a valid trace.
    pub sessions: usize,
    /// Worst accounted suboptimality across the group — the session-level
    /// MSO over the shared surface.
    pub mso: f64,
    /// Mean accounted suboptimality — the session-level ASO.
    pub aso: f64,
    /// Sessions served by the breaker-open degraded path (native plan, no
    /// ESS). Their suboptimality is excluded from the MSO/ASO columns —
    /// degraded answers carry no robustness guarantee to aggregate.
    pub degraded: usize,
    /// Sessions refused outright because the fingerprint's breaker was
    /// open and no degraded path was configured.
    pub breaker_open: usize,
}

impl ServeReport {
    /// Count sessions matching a predicate.
    pub fn count(&self, pred: impl Fn(&SessionResult) -> bool) -> u64 {
        self.results.iter().filter(|r| pred(r)).count() as u64
    }

    /// Sessions that completed cleanly.
    pub fn completed(&self) -> u64 {
        self.count(|r| r.outcome == SessionOutcome::Completed)
    }

    /// Sessions refused at admission.
    pub fn rejected(&self) -> u64 {
        self.count(|r| r.outcome == SessionOutcome::Rejected)
    }

    /// Sessions served by the breaker-open degraded path.
    pub fn degraded(&self) -> u64 {
        self.count(|r| r.outcome == SessionOutcome::Degraded)
    }

    /// Sessions refused because their fingerprint's breaker was open.
    pub fn breaker_refused(&self) -> u64 {
        self.count(|r| matches!(r.outcome, SessionOutcome::BreakerOpen(_)))
    }

    /// Sessions refused because the spec itself was invalid (e.g. an
    /// out-of-range `qa` cell) — refused before discovery, never clamped.
    pub fn invalid_specs(&self) -> u64 {
        self.count(|r| matches!(r.outcome, SessionOutcome::InvalidSpec(_)))
    }

    /// Sessions that ran discovery but reported a non-finite
    /// suboptimality (a corrupt trace; strict serving fails on any).
    pub fn non_finite_subopts(&self) -> u64 {
        self.count(|r| r.subopt.is_some_and(|s| !s.is_finite()))
    }

    /// Completed sessions per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }

    /// The `q`-th latency percentile (`0.0..=1.0`) over all sessions that
    /// reached a worker, or `None` when none did.
    pub fn latency_percentile(&self, q: f64) -> Option<Duration> {
        let mut walls: Vec<Duration> = self
            .results
            .iter()
            .filter(|r| r.outcome != SessionOutcome::Rejected)
            .map(|r| r.wall)
            .collect();
        if walls.is_empty() {
            return None;
        }
        walls.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * walls.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(walls.len() - 1);
        Some(walls[rank])
    }

    /// Per-(query, algorithm) session-level MSO/ASO, in name order.
    /// Degraded and breaker-refused sessions are counted per group but
    /// kept out of the MSO/ASO aggregation.
    pub fn group_stats(&self) -> Vec<GroupStats> {
        #[derive(Default)]
        struct Acc {
            subopts: Vec<f64>,
            degraded: usize,
            breaker_open: usize,
        }
        let mut groups: BTreeMap<(String, String), Acc> = BTreeMap::new();
        for r in &self.results {
            let acc = groups.entry((r.query.clone(), r.algo.clone())).or_default();
            match &r.outcome {
                SessionOutcome::Degraded => acc.degraded += 1,
                SessionOutcome::BreakerOpen(_) => acc.breaker_open += 1,
                _ => {
                    if let Some(s) = r.subopt {
                        acc.subopts.push(s);
                    }
                }
            }
        }
        groups
            .into_iter()
            .filter(|(_, acc)| !acc.subopts.is_empty() || acc.degraded > 0 || acc.breaker_open > 0)
            .map(|((query, algo), acc)| {
                let n = acc.subopts.len();
                let mso = acc.subopts.iter().fold(0.0_f64, |a, &b| a.max(b));
                let aso = if n > 0 { acc.subopts.iter().sum::<f64>() / n as f64 } else { 0.0 };
                GroupStats {
                    query,
                    algo,
                    sessions: n,
                    mso,
                    aso,
                    degraded: acc.degraded,
                    breaker_open: acc.breaker_open,
                }
            })
            .collect()
    }

    /// Human-readable run summary: [`timing_render`](Self::timing_render),
    /// any refusal or resilience counts, then the per-group table.
    pub fn render(&self) -> String {
        let mut s = self.timing_render();
        if self.invalid_specs() > 0 {
            let _ = writeln!(s, "refused {} session(s) with invalid specs", self.invalid_specs());
        }
        if self.degraded() + self.breaker_refused() > 0 {
            let _ = writeln!(
                s,
                "resilience: {} degraded session(s), {} refused by an open breaker",
                self.degraded(),
                self.breaker_refused(),
            );
        }
        s.push_str(&self.group_table());
        s
    }

    /// The wall-clock dependent lines of [`render`](Self::render): run
    /// duration, registry counters (whose hit/wait split depends on
    /// scheduling), throughput and latency percentiles.
    pub fn timing_render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "served {} session(s) in {:.2?}: {} completed, {} rejected, {} other, \
             {} drained at shutdown",
            self.results.len(),
            self.wall,
            self.completed(),
            self.rejected(),
            self.results.len() as u64 - self.completed() - self.rejected(),
            self.drained,
        );
        let _ = writeln!(
            s,
            "registry: {} compile(s), {} hit(s), {} single-flight wait(s) over {} fingerprint(s)",
            self.registry.compiles, self.registry.hits, self.registry.waits, self.registry.entries,
        );
        let waited = self.count(|r| r.lookup == Some(Lookup::Waited));
        let _ = writeln!(
            s,
            "throughput: {:.1} session(s)/s   ({} session(s) piggybacked on an in-flight compile)",
            self.throughput(),
            waited,
        );
        if let (Some(p50), Some(p95), Some(p99)) = (
            self.latency_percentile(0.50),
            self.latency_percentile(0.95),
            self.latency_percentile(0.99),
        ) {
            let _ = writeln!(s, "latency: p50 {:.2?}   p95 {:.2?}   p99 {:.2?}", p50, p95, p99);
        }
        s
    }

    fn group_table(&self) -> String {
        let mut s = String::new();
        let groups = self.group_stats();
        if !groups.is_empty() {
            let _ = writeln!(
                s,
                "{:<10} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "query", "algo", "sessions", "MSO", "ASO", "degraded", "brk_open"
            );
            for g in groups {
                let _ = writeln!(
                    s,
                    "{:<10} {:<7} {:>9} {:>9.2} {:>9.2} {:>9} {:>9}",
                    g.query, g.algo, g.sessions, g.mso, g.aso, g.degraded, g.breaker_open
                );
            }
        }
        s
    }

    /// A deterministic summary for drill comparisons: outcome counts and
    /// the per-group table, with everything wall-clock dependent (run
    /// duration, latency percentiles, throughput, lookup classes,
    /// registry counters) excluded. Two quiet runs of the same schedule
    /// render byte-identically — the crash-recovery drill's invariant.
    pub fn stable_render(&self) -> String {
        let mut s = String::new();
        let mut by_outcome: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &self.results {
            *by_outcome.entry(r.outcome.label()).or_default() += 1;
        }
        let _ = writeln!(s, "sessions: {}", self.results.len());
        for (label, n) in by_outcome {
            let _ = writeln!(s, "outcome {label}: {n}");
        }
        s.push_str(&self.group_table());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(
        id: usize,
        algo: &str,
        outcome: SessionOutcome,
        subopt: Option<f64>,
    ) -> SessionResult {
        SessionResult {
            id,
            query: "2D_Q91".to_string(),
            algo: algo.to_string(),
            outcome,
            subopt,
            steps: 3,
            wall: Duration::from_millis(10 * (id as u64 + 1)),
            lookup: None,
            trace_render: None,
            total_cost: None,
            spans: Vec::new(),
        }
    }

    fn report(results: Vec<SessionResult>) -> ServeReport {
        ServeReport {
            results,
            registry: RegistryStats::default(),
            drained: 0,
            wall: Duration::from_secs(1),
        }
    }

    #[test]
    fn aggregates_mso_aso_and_percentiles() {
        let r = report(vec![
            result(0, "sb", SessionOutcome::Completed, Some(1.0)),
            result(1, "sb", SessionOutcome::Completed, Some(3.0)),
            result(2, "sb", SessionOutcome::Rejected, None),
        ]);
        let g = r.group_stats();
        assert_eq!(g.len(), 1);
        assert!((g[0].mso - 3.0).abs() < 1e-12);
        assert!((g[0].aso - 2.0).abs() < 1e-12);
        assert_eq!(g[0].sessions, 2);
        assert_eq!(r.completed(), 2);
        assert_eq!(r.rejected(), 1);
        // Two non-rejected sessions at 10ms and 20ms.
        assert_eq!(r.latency_percentile(0.5), Some(Duration::from_millis(10)));
        assert_eq!(r.latency_percentile(1.0), Some(Duration::from_millis(20)));
        assert!((r.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentile_is_none_without_worker_sessions() {
        assert_eq!(report(vec![]).latency_percentile(0.5), None);
        // Rejected sessions never reached a worker; they don't count.
        let r = report(vec![result(0, "sb", SessionOutcome::Rejected, None)]);
        assert_eq!(r.latency_percentile(0.99), None);
    }

    #[test]
    fn latency_percentile_single_sample_answers_every_quantile() {
        let r = report(vec![result(0, "sb", SessionOutcome::Completed, Some(1.0))]);
        let only = Some(Duration::from_millis(10));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, -3.0, 7.0] {
            assert_eq!(r.latency_percentile(q), only, "q={q}");
        }
    }

    #[test]
    fn latency_percentile_exact_boundaries() {
        // 100 sessions with walls 10ms, 20ms, ..., 1000ms: the ceil-rank
        // definition puts p50 exactly at the 50th sample, p95 at the 95th,
        // p99 at the 99th.
        let results: Vec<SessionResult> =
            (0..100).map(|i| result(i, "sb", SessionOutcome::Completed, Some(1.0))).collect();
        let r = report(results);
        assert_eq!(r.latency_percentile(0.50), Some(Duration::from_millis(500)));
        assert_eq!(r.latency_percentile(0.95), Some(Duration::from_millis(950)));
        assert_eq!(r.latency_percentile(0.99), Some(Duration::from_millis(990)));
        assert_eq!(r.latency_percentile(0.0), Some(Duration::from_millis(10)));
        assert_eq!(r.latency_percentile(1.0), Some(Duration::from_millis(1000)));
    }

    #[test]
    fn flags_non_finite_subopts_and_renders() {
        let r = report(vec![
            result(0, "sb", SessionOutcome::Completed, Some(f64::INFINITY)),
            result(1, "ab", SessionOutcome::Completed, Some(1.5)),
        ]);
        assert_eq!(r.non_finite_subopts(), 1);
        let text = r.render();
        assert!(text.contains("served 2 session(s)"), "{text}");
        assert!(text.contains("MSO"), "{text}");
    }
}
