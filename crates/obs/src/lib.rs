//! `pchls-obs` — zero-dependency observability for the whole
//! workspace: metrics from kernel to wire, spans from compile to
//! response, with live Prometheus-style scraping and Chrome-trace
//! export.
//!
//! Two independent primitives, both built from plain atomics (no
//! `unsafe`, no dependencies):
//!
//! * **Metrics** — a [`MetricsRegistry`] of named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s (the one histogram
//!   type the serve tier, the store and the kernel now share).
//!   Recording is wait-free; [`MetricsRegistry::render`] emits
//!   Prometheus-style text exposition, served live by `pchls serve`'s
//!   `metrics` protocol op.
//! * **Tracing** — per-thread bounded ring buffers of spans and point
//!   events ([`span!`]/[`event!`]), guarded by one process-global
//!   atomic flag. Disabled cost is a single relaxed load, so the
//!   kernel's phase instrumentation stays compiled in; enabled,
//!   memory is bounded with honest drop counting. [`snapshot`] +
//!   [`chrome_trace_json`] turn a run into a file Perfetto loads
//!   directly (`pchls synth --trace-out trace.json`).
//!
//! Registries are values, not singletons — a service owns its own so
//! exact-count tests never see foreign traffic. The [`global`]
//! registry exists for code with no natural owner (store timings,
//! process-wide gauges).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod export;
mod metrics;
pub mod trace;

use std::sync::OnceLock;

pub use export::chrome_trace_json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry};
pub use trace::{
    enabled, record_span, reset, set_enabled, snapshot, Arg, ArgValue, EventKind, SpanGuard,
    TraceBuffer, TraceEvent, TraceSnapshot,
};

/// The process-wide registry, for metrics with no natural owning
/// instance (the persistent store's read/append/compact timings, say).
/// Components with an owner — the serve tier — keep their own
/// [`MetricsRegistry`] instead.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}
