//! Session specifications and per-session results.

use rqp_catalog::{RqpError, RqpResult};
use rqp_core::{AlignedBound, Discovery, NativeOptimizer, PlanBouquet, ReOptimizer, SpillBound};
use rqp_ess::{compile_fingerprint, Cell, EssConfig};
use rqp_qplan::{CostModel, StableHasher};
use rqp_workloads::Workload;
use std::time::Duration;

/// One unit of serving work: a named workload, a discovery algorithm, and
/// (optionally) where in the ESS the actual selectivities land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Unique session id (assigned at submission).
    pub id: usize,
    /// Workload name, resolved via [`rqp_workloads::Workload::by_name`].
    pub query: String,
    /// Algorithm token (`sb` | `ab` | `pb` | `native` | `reopt`).
    pub algo: String,
    /// Actual-location grid cell; `None` picks the grid midpoint. An
    /// out-of-range cell is refused with a structured error (see
    /// [`resolve_qa`]), never clamped.
    pub qa: Option<Cell>,
    /// Per-session chaos seed, mixed into the server's base fault config
    /// so concurrent sessions draw independent fault schedules.
    pub seed: u64,
}

impl SessionSpec {
    /// A midpoint session with a seed derived from its id.
    pub fn new(id: usize, query: impl Into<String>, algo: impl Into<String>) -> SessionSpec {
        SessionSpec { id, query: query.into(), algo: algo.into(), qa: None, seed: id as u64 }
    }
}

/// Resolve a session's actual-location cell against the surface it will
/// run on: `None` picks the grid midpoint; an explicit cell must lie
/// inside the grid.
///
/// Out-of-range cells used to be silently clamped to the last cell, which
/// quietly reported MSO/ASO for the wrong actual location — a real bug
/// once specs arrive over a socket. They are a structured refusal now.
///
/// # Errors
/// [`RqpError::Config`] when `qa` is outside `0..cells`.
pub fn resolve_qa(qa: Option<Cell>, cells: usize) -> RqpResult<Cell> {
    match qa {
        None => Ok(cells / 2),
        Some(c) if c < cells => Ok(c),
        Some(c) => Err(RqpError::Config(format!(
            "session qa {c} is out of range for a {cells}-cell surface"
        ))),
    }
}

/// The compile fingerprint a session's (query, resolution) pair maps to —
/// the exact value [`crate::Server`] computes before touching the
/// registry, exposed so a remote client can route sessions to the shard
/// that owns the fingerprint.
///
/// # Errors
/// [`RqpError::Config`] for an unknown workload name.
pub fn session_fingerprint(query: &str, resolution: Option<usize>) -> RqpResult<u64> {
    let w = Workload::by_name(query)?;
    let model = CostModel::default();
    let mut cfg = EssConfig::coarse(w.query.dims());
    if let Some(r) = resolution {
        cfg.resolution = r;
    }
    Ok(compile_fingerprint(&w.catalog, &w.query, &model, &cfg))
}

/// FNV-1a of a name: the deterministic seed of session trace ids, and the
/// shard route of a workload name without a fingerprint.
pub(crate) fn name_digest(name: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(name.as_bytes());
    h.finish()
}

/// Resolve an algorithm token to its discovery implementation.
///
/// # Errors
/// Returns [`RqpError::Config`] for unknown tokens.
pub fn algo_by_name(name: &str) -> RqpResult<Box<dyn Discovery>> {
    match name.to_ascii_lowercase().as_str() {
        "sb" => Ok(Box::new(SpillBound::with_refined_bounds())),
        "ab" => Ok(Box::new(AlignedBound::new())),
        "pb" => Ok(Box::new(PlanBouquet::new())),
        "native" => Ok(Box::new(NativeOptimizer)),
        "reopt" => Ok(Box::new(ReOptimizer::default())),
        other => {
            Err(RqpError::Config(format!("unknown algorithm {other:?} (sb|ab|pb|native|reopt)")))
        }
    }
}

/// How a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Discovery finished; the trace completed cleanly.
    Completed,
    /// Admission was refused — the queue was at capacity.
    Rejected,
    /// The per-session deadline elapsed (before or during discovery).
    DeadlineExpired,
    /// Discovery finished but spent more than the configured
    /// suboptimality budget cap.
    OverBudget,
    /// The fingerprint's circuit breaker was open and no degraded path was
    /// configured; carries the breaker's refusal (cause + re-probe window).
    BreakerOpen(String),
    /// The fingerprint's circuit breaker was open, so the session was
    /// served by the native optimizer without the compiled ESS — a valid
    /// answer with no robustness guarantee, flagged rather than hidden.
    Degraded,
    /// The spec itself was invalid (e.g. an out-of-range `qa` cell);
    /// refused with the structured reason before discovery ran.
    InvalidSpec(String),
    /// Compilation or discovery failed; carries the reason.
    Failed(String),
}

impl SessionOutcome {
    /// Short stable label for reports and events.
    pub fn label(&self) -> &'static str {
        match self {
            SessionOutcome::Completed => "completed",
            SessionOutcome::Rejected => "rejected",
            SessionOutcome::DeadlineExpired => "deadline_expired",
            SessionOutcome::OverBudget => "over_budget",
            SessionOutcome::BreakerOpen(_) => "breaker_open",
            SessionOutcome::Degraded => "degraded",
            SessionOutcome::InvalidSpec(_) => "invalid_spec",
            SessionOutcome::Failed(_) => "failed",
        }
    }

    /// Inverse of [`SessionOutcome::label`] (wire decoding): `detail`
    /// fills the variants that carry a reason and is dropped otherwise.
    pub fn from_label(label: &str, detail: String) -> Option<SessionOutcome> {
        Some(match label {
            "completed" => SessionOutcome::Completed,
            "rejected" => SessionOutcome::Rejected,
            "deadline_expired" => SessionOutcome::DeadlineExpired,
            "over_budget" => SessionOutcome::OverBudget,
            "breaker_open" => SessionOutcome::BreakerOpen(detail),
            "degraded" => SessionOutcome::Degraded,
            "invalid_spec" => SessionOutcome::InvalidSpec(detail),
            "failed" => SessionOutcome::Failed(detail),
            _ => return None,
        })
    }
}

/// The record a served session leaves behind.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The session id from the spec.
    pub id: usize,
    /// Workload name.
    pub query: String,
    /// Algorithm token (normalized to lowercase).
    pub algo: String,
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// Accounted suboptimality (`None` when discovery never ran).
    pub subopt: Option<f64>,
    /// Executions in the discovery trace (0 when discovery never ran).
    pub steps: usize,
    /// Wall-clock from admission to result (queueing included).
    pub wall: Duration,
    /// How this session's registry lookup resolved (`None` when it never
    /// reached the registry).
    pub lookup: Option<crate::registry::Lookup>,
    /// Rendered discovery trace, kept only when the server is configured
    /// with `keep_traces`.
    pub trace_render: Option<String>,
    /// Total accounted execution cost of the discovery run (`None` when
    /// discovery never ran). Causal Execution spans' `spent` attributes sum
    /// to this.
    pub total_cost: Option<f64>,
    /// The session's causal trace, populated when the server runs with
    /// `tracing` enabled (empty otherwise). Ordered by span start time.
    pub spans: Vec<rqp_obs::SpanRecord>,
}

impl SessionResult {
    /// Whether this session's discovery finished (completed or
    /// over-budget — the trace is valid either way). Degraded sessions
    /// produced an answer but no discovery trace, so they don't count.
    pub fn discovered(&self) -> bool {
        matches!(self.outcome, SessionOutcome::Completed | SessionOutcome::OverBudget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_tokens_resolve_case_insensitively() {
        for t in ["sb", "AB", "pb", "native", "REOPT"] {
            assert!(algo_by_name(t).is_ok(), "{t}");
        }
        let err = match algo_by_name("vulcan") {
            Err(e) => e.to_string(),
            Ok(_) => panic!("vulcan must not resolve"),
        };
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn resolve_qa_defaults_to_midpoint_and_refuses_out_of_range() {
        assert_eq!(resolve_qa(None, 9).unwrap(), 4);
        assert_eq!(resolve_qa(Some(0), 9).unwrap(), 0);
        assert_eq!(resolve_qa(Some(8), 9).unwrap(), 8);
        let err = resolve_qa(Some(9), 9).expect_err("one past the end");
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(resolve_qa(Some(usize::MAX), 9).is_err());
    }

    #[test]
    fn session_fingerprint_is_stable_and_resolution_sensitive() {
        let a = session_fingerprint("2D_Q91", None).unwrap();
        let b = session_fingerprint("2D_Q91", None).unwrap();
        assert_eq!(a, b, "same inputs, same fingerprint");
        let c = session_fingerprint("2D_Q91", Some(7)).unwrap();
        assert_ne!(a, c, "resolution is part of the fingerprint");
        assert!(session_fingerprint("NO_SUCH_QUERY", None).is_err());
    }

    #[test]
    fn name_digests_are_plain_fnv1a() {
        // FNV-1a/64 reference vectors: trace ids and shard routes derived
        // from names must not move
        assert_eq!(name_digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(name_digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(name_digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(SessionOutcome::Completed.label(), "completed");
        assert_eq!(SessionOutcome::Failed("x".into()).label(), "failed");
        assert_eq!(SessionOutcome::Rejected.label(), "rejected");
        assert_eq!(SessionOutcome::BreakerOpen("x".into()).label(), "breaker_open");
        assert_eq!(SessionOutcome::Degraded.label(), "degraded");
        let x = || "x".to_string();
        for outcome in [
            SessionOutcome::Completed,
            SessionOutcome::Rejected,
            SessionOutcome::DeadlineExpired,
            SessionOutcome::OverBudget,
            SessionOutcome::BreakerOpen(x()),
            SessionOutcome::Degraded,
            SessionOutcome::InvalidSpec(x()),
            SessionOutcome::Failed(x()),
        ] {
            assert_eq!(SessionOutcome::from_label(outcome.label(), x()), Some(outcome));
        }
        assert_eq!(SessionOutcome::from_label("unknown", x()), None);
    }
}
