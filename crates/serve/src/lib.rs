//! `pchls-serve` — the long-running synthesis service over the session
//! engine.
//!
//! The paper's workflow is request-shaped: a client submits a dataflow
//! graph plus a `(latency, power)` constraint point and receives a
//! synthesized design. The session API (`pchls-core`'s
//! [`Engine`](pchls_core::Engine) → `CompiledGraph` → `Session`)
//! already splits state by lifetime exactly the way a server needs;
//! this crate adds the subsystem that accepts many concurrent requests
//! and amortizes compilation *across clients*:
//!
//! * A compile cache — compiled graphs addressed by **content**
//!   ([`pchls_cdfg::graph_fingerprint`], a stable hash of the graph as
//!   spelled, node ids included),
//!   verified by full equality, bounded LRU, with identical in-flight
//!   compiles coalesced so N clients submitting the same graph trigger
//!   one compile.
//! * [`Service`] — compile cache, result tier and a bounded two-lane
//!   job queue **sharded N ways by fingerprint** (shards never contend
//!   on a lock), each shard fed by its own
//!   [`pchls_par::WorkerPool`] workers plus a dedicated hit-lane
//!   worker, with per-request deadlines and cancellation through the
//!   engine's progress hook (`SynthesisError::Cancelled`). Admission
//!   is explicit: blocking backpressure for in-process callers
//!   ([`Service::call`]), shedding (a well-formed `overloaded` error,
//!   never a dropped connection) for the network front ends.
//! * [`SubmitRequest`]/[`SubmitResponse`] — a JSON-lines protocol
//!   served over stdin/stdout ([`serve_stdio`]) or TCP on a
//!   single-threaded nonblocking reactor ([`serve_tcp_with`], built on
//!   [`pchls_net`]) with per-connection token-bucket rate limits,
//!   capped line framing and a first-class stop signal
//!   ([`ShutdownHandle`]); exposed on the command line as `pchls
//!   serve`.
//! * [`ServiceStats`] — a snapshot of requests, shed/rate-limited
//!   counts, p50/p99/p99.9/max latency (from fixed-bucket
//!   [`pchls_obs::Histogram`]s, one global plus one per priority lane) and
//!   cache hit rates, read from the per-service
//!   [`pchls_obs::MetricsRegistry`] every counter and histogram records
//!   into. The same registry is scraped live as Prometheus-style text
//!   through the protocol's `metrics` op ([`Service::metrics_text`]);
//!   per-request spans land in the process trace when `pchls_obs`
//!   tracing is enabled.
//!
//! Service responses are **byte-identical** to what a direct
//! [`Session::synthesize`](pchls_core::Session::synthesize) /
//! `Session::batch` emits for the same constraint points — the cache
//! and the scheduler are pure plumbing around the deterministic kernel
//! (enforced by this crate's `service_smoke` integration test; perfbench's
//! `serve-mix` workload drives the same path over TCP).
//!
//! # Example
//!
//! ```
//! use pchls_core::Engine;
//! use pchls_fulib::paper_library;
//! use pchls_serve::{Service, ServiceConfig, SubmitRequest};
//!
//! let service = Service::start(
//!     Engine::new(paper_library()),
//!     ServiceConfig { workers: 2, ..ServiceConfig::default() },
//! );
//!
//! // Same graph, two constraint points: one compile, one cache hit.
//! let a = service.call(SubmitRequest::synth(1, "hal", 17, 25.0));
//! let b = service.call(SubmitRequest::synth(2, "hal", 10, 40.0));
//! assert!(a.ok && b.ok);
//! let stats = service.stats();
//! assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod admission;
mod cache;
mod lanes;
mod lru;
mod net;
mod protocol;
mod results;
mod service;
mod stats;

pub use net::{serve_stdio, serve_tcp, serve_tcp_with, ShutdownHandle};
pub use protocol::{SubmitRequest, SubmitResponse};
pub use service::{Service, ServiceConfig};
pub use stats::{render_serve_stats, LaneSnapshot, ServiceStats};
