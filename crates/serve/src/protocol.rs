//! The JSON-lines wire protocol.
//!
//! One JSON object per line in both directions, over stdio or TCP.
//! Requests are [`SubmitRequest`]s whose `op` field selects the verb;
//! every reply is a [`SubmitResponse`]. Responses to `synth` requests
//! may arrive **out of submission order** (the service is concurrent);
//! the echoed `id` correlates them.
//!
//! ```text
//! → {"op":"synth","id":1,"graph":"hal","latency":17,"power":25}
//! ← {"id":1,"ok":true,"error":null,"point":{"benchmark":"hal",...},"stats":null}
//! → {"op":"stats","id":2}
//! ← {"id":2,"ok":true,"error":null,"point":null,"stats":{"requests":1,...}}
//! ```
//!
//! Verbs:
//!
//! * `"synth"` (or empty): synthesize `graph` (a built-in benchmark
//!   name) or `graph_text` (an inline `.dfg` document) under
//!   `(latency, power)`. An optional `budget` object — the
//!   [`PowerBudget`] JSON shape, `{"constant":…}` / `{"steps":[[c,b],…]}`
//!   / `{"per_cycle":[…]}` — replaces the scalar `power` (still
//!   validated) with a time-varying envelope; requests without it (or
//!   with it `null`) behave exactly as before, keeping the scalar wire
//!   format compatible byte for byte. Optional `deadline_ms` bounds the
//!   wall-clock time from acceptance; an overrun cancels the run
//!   mid-iteration. The reply's `point` is **byte-identical** to what
//!   `pchls batch` / `Session::synthesize` would emit for the same
//!   constraint point — infeasible points answer `ok:true` with a
//!   null-field point, exactly like a sweep does.
//! * `"cancel"`: best-effort cancel of the in-flight request with the
//!   same `id` on this connection. No reply of its own; the cancelled
//!   request replies `ok:false, error:"cancelled"` (unless it already
//!   finished).
//! * `"stats"`: immediate [`ServiceStats`] snapshot (does not queue
//!   behind synthesis jobs).

use pchls_core::{PowerBudget, SweepPoint};
use serde::{Deserialize, Serialize};

use crate::stats::ServiceStats;

/// A client request line. Fields irrelevant to the chosen `op` are
/// ignored; all fields default so clients only write what they mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Verb: `"synth"` (default when empty), `"cancel"` or `"stats"`.
    #[serde(default)]
    pub op: String,
    /// Client-chosen correlation id, echoed on the response. Should be
    /// unique per connection (it also addresses `cancel`).
    #[serde(default)]
    pub id: u64,
    /// Built-in benchmark name (`hal`, `cosine`, …); ignored when
    /// `graph_text` is set.
    #[serde(default)]
    pub graph: String,
    /// Inline graph in the textual `.dfg` format; takes precedence
    /// over `graph`.
    #[serde(default)]
    pub graph_text: String,
    /// Latency bound `T` in cycles (must be ≥ 1).
    #[serde(default)]
    pub latency: u32,
    /// Power bound `P<` (must be ≥ 0 and not NaN). Validated even when
    /// `budget` is set, though the envelope then replaces it as the
    /// bound.
    #[serde(default)]
    pub power: f64,
    /// Optional time-varying budget envelope; when set it replaces the
    /// scalar `power` bound. Absent or `null` keeps the historical
    /// scalar behaviour (wire-compatible with pre-envelope clients).
    #[serde(default)]
    pub budget: Option<PowerBudget>,
    /// Wall-clock deadline in milliseconds from acceptance; `0` means
    /// none.
    #[serde(default)]
    pub deadline_ms: u64,
}

impl SubmitRequest {
    /// A `synth` request for a built-in benchmark graph.
    #[must_use]
    pub fn synth(id: u64, graph: &str, latency: u32, power: f64) -> SubmitRequest {
        SubmitRequest {
            op: "synth".to_owned(),
            id,
            graph: graph.to_owned(),
            graph_text: String::new(),
            latency,
            power,
            budget: None,
            deadline_ms: 0,
        }
    }

    /// A `synth` request carrying an inline `.dfg` document.
    #[must_use]
    pub fn synth_text(id: u64, graph_text: &str, latency: u32, power: f64) -> SubmitRequest {
        SubmitRequest {
            graph: String::new(),
            graph_text: graph_text.to_owned(),
            ..SubmitRequest::synth(id, "", latency, power)
        }
    }

    /// A `stats` request.
    #[must_use]
    pub fn stats(id: u64) -> SubmitRequest {
        SubmitRequest {
            op: "stats".to_owned(),
            ..SubmitRequest::synth(id, "", 0, 0.0)
        }
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> SubmitRequest {
        self.deadline_ms = deadline_ms;
        self
    }
}

/// One reply line. Exactly one of `point` / `stats` is set on success;
/// `error` is set when `ok` is false.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The request id this reply answers.
    pub id: u64,
    /// Whether the request was served. Note an *infeasible* constraint
    /// point is still `ok:true` — its `point` carries null fields,
    /// matching direct sweep/batch output byte for byte.
    pub ok: bool,
    /// Why the request failed, when `ok` is false.
    pub error: Option<String>,
    /// The synthesis outcome of a `synth` request.
    pub point: Option<SweepPoint>,
    /// The snapshot answering a `stats` request.
    pub stats: Option<ServiceStats>,
    /// The Prometheus-style text exposition answering a `metrics`
    /// request. Absent on every other reply (old clients that ignore
    /// unknown fields keep working).
    #[serde(default)]
    pub metrics: Option<String>,
}

impl SubmitResponse {
    /// A successful `synth` reply.
    #[must_use]
    pub(crate) fn point(id: u64, point: SweepPoint) -> SubmitResponse {
        SubmitResponse {
            id,
            ok: true,
            error: None,
            point: Some(point),
            stats: None,
            metrics: None,
        }
    }

    /// A failure reply.
    #[must_use]
    pub(crate) fn error(id: u64, message: impl Into<String>) -> SubmitResponse {
        SubmitResponse {
            id,
            ok: false,
            error: Some(message.into()),
            point: None,
            stats: None,
            metrics: None,
        }
    }

    /// A `stats` reply.
    #[must_use]
    pub(crate) fn stats(id: u64, stats: ServiceStats) -> SubmitResponse {
        SubmitResponse {
            id,
            ok: true,
            error: None,
            point: None,
            stats: Some(stats),
            metrics: None,
        }
    }

    /// A `metrics` reply: the text exposition, carried as one JSON
    /// string field.
    #[must_use]
    pub(crate) fn metrics(id: u64, text: String) -> SubmitResponse {
        SubmitResponse {
            id,
            ok: true,
            error: None,
            point: None,
            stats: None,
            metrics: Some(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_and_defaults_fill_in() {
        let req = SubmitRequest::synth(7, "hal", 17, 25.0).with_deadline_ms(500);
        let json = serde_json::to_string(&req).unwrap();
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // A minimal hand-written line: everything else defaults.
        let sparse: SubmitRequest =
            serde_json::from_str(r#"{"id":3,"graph":"hal","latency":17,"power":25}"#).unwrap();
        assert_eq!(sparse.op, "");
        assert_eq!(sparse.deadline_ms, 0);
        assert_eq!(sparse.graph_text, "");
        assert_eq!((sparse.id, sparse.latency, sparse.power), (3, 17, 25.0));
    }

    #[test]
    fn response_round_trips() {
        let resp = SubmitResponse::error(9, "unknown graph `nope`");
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"ok\":false"));
        let back: SubmitResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn budget_field_round_trips_and_defaults_to_none() {
        let req = SubmitRequest {
            budget: Some(PowerBudget::steps(vec![(0, 30.0), (8, 12.0)])),
            ..SubmitRequest::synth(3, "hal", 17, 0.0)
        };
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"steps\""), "{json}");
        let back: SubmitRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Pre-envelope wire lines — no `budget` key at all — still
        // parse, with the scalar semantics.
        let sparse: SubmitRequest =
            serde_json::from_str(r#"{"id":3,"graph":"hal","latency":17,"power":25}"#).unwrap();
        assert_eq!(sparse.budget, None);
        // An explicit null is the same as absent.
        let nulled: SubmitRequest =
            serde_json::from_str(r#"{"id":3,"graph":"hal","latency":17,"power":25,"budget":null}"#)
                .unwrap();
        assert_eq!(nulled.budget, None);
    }

    #[test]
    fn invalid_wire_budgets_are_rejected_at_parse_time() {
        for bad in [
            r#"{"id":1,"graph":"hal","latency":17,"budget":{"constant":-2}}"#,
            r#"{"id":1,"graph":"hal","latency":17,"budget":{"per_cycle":[]}}"#,
            r#"{"id":1,"graph":"hal","latency":17,"budget":{"bogus":1}}"#,
        ] {
            assert!(
                serde_json::from_str::<SubmitRequest>(bad).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn constructors_set_the_op() {
        assert_eq!(SubmitRequest::stats(5).op, "stats");
        assert_eq!(SubmitRequest::synth(6, "hal", 1, 1.0).op, "synth");
        assert!(!SubmitRequest::synth_text(7, "graph g {}", 1, 1.0)
            .graph_text
            .is_empty());
    }
}
