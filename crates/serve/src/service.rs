//! The request scheduler: shards of compile cache + result tier +
//! two-lane job queue, each fed by its own workers, with per-request
//! deadlines, cancellation and load-shedding admission.
//!
//! # Sharding
//!
//! Every request is routed to a shard by its graph's content hash
//! (`graph_fingerprint % shards`), so one graph's compile cache entry,
//! result-tier entries and queue always live on the same shard and two
//! shards never contend on a lock for the hot path. The persistent
//! store (tier 2) stays service-wide behind one shared
//! [`StoreHandle`](crate::results::StoreHandle) — disk is off the hot
//! path and the on-disk index is one file per directory.
//!
//! # Lanes and admission
//!
//! At admission each request is classified: if the shard's result tier
//! already holds the answer (memory or store index — a pure probe, no
//! counters move) it rides the **hit lane**, otherwise the **synth
//! lane**. Each shard runs one dedicated hit worker plus its share of
//! synthesis workers; all workers drain hits first, so a queued
//! rand200-sized synthesis job never delays a warm lookup behind it.
//!
//! In-process callers use the blocking [`Service::submit`]
//! (backpressure, never sheds). Network front ends use
//! [`Service::try_submit`]: past the shard's admission bound the
//! request is refused *immediately* with a well-formed `overloaded`
//! error — the reactor thread never blocks on a saturated shard, and
//! the client always gets a parseable response instead of a dropped
//! connection.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pchls_cdfg::{benchmarks, graph_fingerprint, parse_cdfg, Cdfg};
use pchls_core::{
    Engine, SynthesisConstraints, SynthesisError, SynthesisOptions, SynthesisRequest,
    SynthesisResult, MAX_LATENCY,
};
use pchls_obs::{Arg, Counter, MetricsRegistry};
use pchls_par::WorkerPool;
use pchls_store::{StoreKey, StoreRecord};

use crate::cache::{CacheStats, CompileCache};
use crate::lanes::{Lane, LaneQueues, PushRefusal};
use crate::protocol::{SubmitRequest, SubmitResponse};
use crate::results::{ResultCacheStats, ResultTier, StoreHandle, StoreTierStats};
use crate::stats::{LaneSnapshot, LatencyHistogram, ServiceStats};

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Synthesis worker threads across all shards (0 = one per
    /// available core, i.e. [`pchls_par::thread_count`]). Each shard
    /// additionally runs one dedicated hit-lane worker.
    pub workers: usize,
    /// Maximum jobs waiting per lane across the service — divided
    /// evenly over the shards (each lane of each shard gets
    /// `queue_cap / shards`, at least 1). [`Service::submit`] blocks at
    /// the bound (backpressure); [`Service::try_submit`] sheds.
    pub queue_cap: usize,
    /// Maximum compiled graphs resident across all shard caches.
    pub cache_cap: usize,
    /// Maximum synthesis results resident across all in-memory result
    /// tiers.
    pub result_cap: usize,
    /// Directory of the persistent result store (tier 2). `None` runs
    /// memory-only; `Some` makes completed results durable and answers
    /// previously-seen points warm across restarts. One store serves
    /// all shards.
    pub store_dir: Option<PathBuf>,
    /// Independent shards (0 = auto: one per synthesis worker, capped
    /// at 4). Each shard owns a compile cache, a result tier, a
    /// two-lane queue and its workers.
    pub shards: usize,
    /// Synth-lane depth at which [`Service::try_submit`] starts
    /// shedding, per shard (0 = the lane's capacity, i.e. shed only
    /// when full). Lower values trade queueing delay for shed rate.
    pub shed_depth: usize,
    /// Per-connection token-bucket refill rate for `synth` requests on
    /// the TCP front end, in requests per second (0 = unlimited).
    pub rate_per_sec: f64,
    /// Per-connection token-bucket burst capacity (clamped to ≥ 1).
    pub burst: f64,
    /// Longest request line the network front ends accept, in bytes.
    /// Oversized lines are answered with a structured error and
    /// discarded — client buffers never grow without bound.
    pub max_line_bytes: usize,
    /// Seconds between in-flight stats lines printed to stderr by the
    /// TCP front end (0 = only the final line at exit). Driven by the
    /// reactor's timer wheel, so an idle server still reports.
    pub stats_interval: u64,
    /// Synthesis options applied to every request (the CLI and batch
    /// path use the default paper configuration). Result-cache keys do
    /// not carry options — point one store directory at one options
    /// configuration.
    pub options: SynthesisOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            queue_cap: 256,
            cache_cap: 64,
            result_cap: 4096,
            store_dir: None,
            shards: 0,
            shed_depth: 0,
            rate_per_sec: 0.0,
            burst: 32.0,
            max_line_bytes: 1 << 20,
            stats_interval: 0,
            options: SynthesisOptions::default(),
        }
    }
}

/// Where a finished job's response goes.
pub(crate) enum ReplySink {
    /// An in-process caller's channel.
    Channel(Sender<SubmitResponse>),
    /// A reactor-owned connection: the completion channel plus the
    /// reactor's waker, so the I/O thread learns about the response
    /// without polling.
    Conn {
        conn: u64,
        tx: Sender<(u64, SubmitResponse)>,
        waker: pchls_net::Waker,
    },
}

impl ReplySink {
    pub(crate) fn send(&self, response: SubmitResponse) {
        match self {
            // A caller that hung up stops caring about its reply;
            // nothing to do about the send failing.
            ReplySink::Channel(tx) => {
                let _ = tx.send(response);
            }
            ReplySink::Conn { conn, tx, waker } => {
                let _ = tx.send((*conn, response));
                let _ = waker.wake();
            }
        }
    }
}

/// What [`Service::try_submit`] did with a request.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Queued; the reply will arrive on the sink. Carries the request's
    /// cancellation flag — store `true` to abort the run mid-iteration.
    Accepted(Arc<AtomicBool>),
    /// Shed at admission: the shard's lane was past its bound. A
    /// well-formed `overloaded` error was already sent on the sink.
    Overloaded,
    /// The service is shutting down. A `shutting down` error was
    /// already sent on the sink.
    ShuttingDown,
}

/// The admission knobs the network front ends read off the service.
pub(crate) struct FrontendLimits {
    pub rate_per_sec: f64,
    pub burst: f64,
    pub max_line_bytes: usize,
    pub stats_interval: u64,
}

/// One queued synthesis job.
pub(crate) struct Job {
    request: SubmitRequest,
    cancel: Arc<AtomicBool>,
    reply: ReplySink,
    accepted: Instant,
    /// The lane this job was admitted on (for the per-lane histogram —
    /// classification happens once, at admission).
    lane: Lane,
}

/// How a processed job ended, for the counters.
enum Disposition {
    Completed,
    Failed,
    Cancelled,
}

/// One shard: compile cache, in-memory result tier and two-lane queue,
/// all keyed by graphs whose `fingerprint % shards` selects this shard.
struct Shard {
    cache: CompileCache,
    results: ResultTier,
    lanes: LaneQueues<Job>,
    /// Synth-lane depth at which `try_submit` sheds.
    shed_depth: usize,
}

/// State shared between the front ends, the shards and the workers.
struct Shared {
    engine: Engine,
    options: SynthesisOptions,
    shards: Vec<Shard>,
    /// The persistent tier, shared by every shard's result tier.
    store: Option<Arc<StoreHandle>>,
    /// This service's own metrics registry (per-instance, not global,
    /// so exact-count tests never observe another service's traffic).
    /// The handles below are resolved from it once at startup; the
    /// registry itself is what `metrics_text` renders.
    metrics: MetricsRegistry,
    latency: Arc<LatencyHistogram>,
    hit_latency: Arc<LatencyHistogram>,
    synth_latency: Arc<LatencyHistogram>,
    /// The built-in graphs, constructed once so the per-request
    /// named-graph lookup is a scan + clone-free borrow, not a rebuild
    /// of the whole benchmark suite.
    builtin_graphs: Vec<Cdfg>,
    /// Name → fingerprint for the built-ins, so routing a named request
    /// costs one hash lookup instead of a fingerprint computation.
    builtin_fingerprints: HashMap<String, u64>,
    limits: FrontendLimits,
    workers: usize,
    requests: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    shed: Counter,
    rate_limited: Counter,
}

/// A running synthesis service: an [`Engine`] fronted by sharded
/// content-addressed caches and bounded two-lane queues consumed by
/// dedicated [`WorkerPool`]s (see the module docs for the sharding and
/// admission story).
///
/// Requests enter through [`submit`](Service::submit) (asynchronous,
/// blocking backpressure), [`try_submit`](Service::try_submit)
/// (non-blocking, sheds under load) or [`call`](Service::call)
/// (synchronous convenience); the stdio/TCP front ends
/// ([`serve_stdio`](crate::serve_stdio) / [`serve_tcp`](crate::serve_tcp))
/// adapt the wire protocol onto them. Dropping the service closes the
/// queues, drains in-flight jobs and joins the workers.
///
/// # Example
///
/// ```
/// use pchls_fulib::paper_library;
/// use pchls_serve::{Service, ServiceConfig, SubmitRequest};
///
/// let service = Service::start(
///     pchls_core::Engine::new(paper_library()),
///     ServiceConfig { workers: 2, ..ServiceConfig::default() },
/// );
/// let response = service.call(SubmitRequest::synth(1, "hal", 17, 25.0));
/// assert!(response.ok);
/// assert!(response.point.unwrap().is_feasible());
/// ```
pub struct Service {
    shared: Arc<Shared>,
    pools: Vec<WorkerPool>,
}

impl Service {
    /// Starts the worker pools over `engine` and begins accepting jobs.
    ///
    /// # Panics
    ///
    /// When a configured `store_dir` cannot be opened — use
    /// [`Service::try_start`] to handle that without panicking.
    #[must_use]
    pub fn start(engine: Engine, config: ServiceConfig) -> Service {
        Service::try_start(engine, config).expect("result store unusable")
    }

    /// [`start`](Service::start), surfacing a failure to open the
    /// configured result store instead of panicking.
    ///
    /// # Errors
    ///
    /// Opening or recovering the store under `config.store_dir` failed.
    pub fn try_start(engine: Engine, config: ServiceConfig) -> std::io::Result<Service> {
        let synth_workers = if config.workers == 0 {
            pchls_par::thread_count()
        } else {
            config.workers
        };
        let shard_count = if config.shards == 0 {
            synth_workers.clamp(1, 4)
        } else {
            config.shards
        };
        let per = |total: usize| (total / shard_count).max(1);
        let lane_cap = per(config.queue_cap);
        let shed_depth = if config.shed_depth == 0 {
            lane_cap
        } else {
            config.shed_depth.min(lane_cap)
        };
        let store = config
            .store_dir
            .as_deref()
            .map(StoreHandle::open)
            .transpose()?;
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                cache: CompileCache::new(per(config.cache_cap)),
                results: ResultTier::with_store(per(config.result_cap), store.clone()),
                lanes: LaneQueues::new(lane_cap, lane_cap),
                shed_depth,
            })
            .collect();
        let builtin_graphs = benchmarks::all();
        let builtin_fingerprints = builtin_graphs
            .iter()
            .map(|g| (g.name().to_string(), graph_fingerprint(g)))
            .collect();
        let metrics = MetricsRegistry::new();
        let shared = Arc::new(Shared {
            engine,
            options: config.options,
            shards,
            store,
            latency: metrics.histogram("pchls_request_latency_seconds"),
            hit_latency: metrics.histogram("pchls_lane_latency_seconds{lane=\"hit\"}"),
            synth_latency: metrics.histogram("pchls_lane_latency_seconds{lane=\"synth\"}"),
            builtin_graphs,
            builtin_fingerprints,
            limits: FrontendLimits {
                rate_per_sec: config.rate_per_sec.max(0.0),
                burst: config.burst,
                max_line_bytes: config.max_line_bytes.max(1),
                stats_interval: config.stats_interval,
            },
            // One hit worker per shard rides along with the synth pool.
            workers: synth_workers + shard_count,
            requests: metrics.counter("pchls_requests_total"),
            completed: metrics.counter("pchls_requests_completed_total"),
            failed: metrics.counter("pchls_requests_failed_total"),
            cancelled: metrics.counter("pchls_requests_cancelled_total"),
            shed: metrics.counter("pchls_requests_shed_total"),
            rate_limited: metrics.counter("pchls_requests_rate_limited_total"),
            metrics,
        });
        let mut pools = Vec::with_capacity(2 * shard_count);
        for idx in 0..shard_count {
            // Spread the synth workers over the shards, at least one
            // each.
            let count = (synth_workers / shard_count
                + usize::from(idx < synth_workers % shard_count))
            .max(1);
            let sh = Arc::clone(&shared);
            pools.push(WorkerPool::spawn(count, move |_worker| {
                while let Some((_, job)) = sh.shards[idx].lanes.pop() {
                    sh.process(idx, job);
                }
            }));
            let sh = Arc::clone(&shared);
            pools.push(WorkerPool::spawn(1, move |_worker| {
                while let Some(job) = sh.shards[idx].lanes.pop_hit() {
                    sh.process(idx, job);
                }
            }));
        }
        Ok(Service { shared, pools })
    }

    /// The engine answering this service's requests.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Enqueues a `synth` request; the reply arrives on `reply` when a
    /// worker finishes it. Blocks while the target lane is full
    /// (backpressure — this path never sheds). Returns the request's
    /// cancellation flag — store `true` to abort the run mid-iteration.
    ///
    /// # Errors
    ///
    /// Hands the request back when the service is shutting down.
    // The `Err` carries the whole request (budget-bearing) by design —
    // it only materializes on the cold shutdown path, and the caller
    // owns the request it gets back.
    #[allow(clippy::result_large_err)]
    pub fn submit(
        &self,
        request: SubmitRequest,
        reply: Sender<SubmitResponse>,
    ) -> Result<Arc<AtomicBool>, SubmitRequest> {
        let (shard, lane) = self.shared.route(&request);
        let cancel = Arc::new(AtomicBool::new(false));
        let job = Job {
            request,
            cancel: Arc::clone(&cancel),
            reply: ReplySink::Channel(reply),
            accepted: Instant::now(),
            lane,
        };
        self.shared.shards[shard]
            .lanes
            .push(lane, job)
            .map_err(|job| job.request)?;
        // Count only after the push: a request rejected at shutdown was
        // never "accepted into the queue" (the documented meaning).
        self.shared.requests.inc();
        Ok(cancel)
    }

    /// Non-blocking admission — the network front ends' path. Refused
    /// requests (shard past its admission bound, or shutdown) are
    /// *answered*, not dropped: a well-formed error response is sent on
    /// `reply` before this returns.
    pub fn try_submit(
        &self,
        request: SubmitRequest,
        reply: Sender<SubmitResponse>,
    ) -> SubmitOutcome {
        self.submit_sink(request, ReplySink::Channel(reply))
    }

    /// [`try_submit`](Service::try_submit) over any reply sink.
    pub(crate) fn submit_sink(&self, request: SubmitRequest, sink: ReplySink) -> SubmitOutcome {
        let (shard_idx, lane) = self.shared.route(&request);
        let shard = &self.shared.shards[shard_idx];
        if lane == Lane::Synth && shard.lanes.depth(Lane::Synth) >= shard.shed_depth {
            self.shared.shed.inc();
            pchls_obs::event!("serve.shed", "id" => request.id);
            sink.send(SubmitResponse::error(request.id, "overloaded"));
            return SubmitOutcome::Overloaded;
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let job = Job {
            request,
            cancel: Arc::clone(&cancel),
            reply: sink,
            accepted: Instant::now(),
            lane,
        };
        match shard.lanes.try_push(lane, job) {
            Ok(()) => {
                self.shared.requests.inc();
                SubmitOutcome::Accepted(cancel)
            }
            Err(PushRefusal::Full(job)) => {
                self.shared.shed.inc();
                pchls_obs::event!("serve.shed", "id" => job.request.id);
                job.reply
                    .send(SubmitResponse::error(job.request.id, "overloaded"));
                SubmitOutcome::Overloaded
            }
            Err(PushRefusal::Closed(job)) => {
                job.reply.send(SubmitResponse::error(
                    job.request.id,
                    "service is shutting down",
                ));
                SubmitOutcome::ShuttingDown
            }
        }
    }

    /// Records one request refused by a connection's token bucket (the
    /// TCP front end answers it with a `rate_limited` error).
    pub(crate) fn note_rate_limited(&self) {
        self.shared.rate_limited.inc();
        pchls_obs::event!("serve.rate_limited");
    }

    /// The admission knobs the network front ends apply per connection.
    pub(crate) fn limits(&self) -> &FrontendLimits {
        &self.shared.limits
    }

    /// Submits and waits for the reply — the one-liner for tests,
    /// benchmarks and simple clients.
    #[must_use]
    pub fn call(&self, request: SubmitRequest) -> SubmitResponse {
        let id = request.id;
        let (tx, rx) = std::sync::mpsc::channel();
        match self.submit(request, tx) {
            Ok(_) => rx
                .recv()
                .unwrap_or_else(|_| SubmitResponse::error(id, "worker dropped the reply")),
            Err(_) => SubmitResponse::error(id, "service is shutting down"),
        }
    }

    /// A consistent metrics snapshot (served immediately; never queued
    /// behind synthesis jobs). Cache and result counters are summed
    /// across shards; store counters come from the one shared handle.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let cache = CacheStats::merged(shared.shards.iter().map(|s| s.cache.stats()));
        let results = ResultCacheStats::merged(shared.shards.iter().map(|s| s.results.stats().0));
        let store = shared
            .store
            .as_ref()
            .map_or_else(StoreTierStats::default, |s| s.stats());
        let queue_depth = shared.shards.iter().map(|s| s.lanes.len()).sum();
        ServiceStats {
            requests: shared.requests.get(),
            completed: shared.completed.get(),
            failed: shared.failed.get(),
            cancelled: shared.cancelled.get(),
            shed: shared.shed.get(),
            rate_limited: shared.rate_limited.get(),
            queue_depth,
            workers: shared.workers,
            shards: shared.shards.len(),
            cache_entries: cache.entries,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_coalesced: cache.coalesced,
            cache_evictions: cache.evictions,
            cache_hit_rate: cache.hit_rate(),
            cache_entry_bytes: cache.entry_bytes,
            cache_mean_eviction_age: cache.mean_eviction_age(),
            result_entries: results.entries,
            result_hits: results.hits,
            result_misses: results.misses,
            result_evictions: results.evictions,
            result_entry_bytes: results.entry_bytes,
            result_mean_eviction_age: results.mean_eviction_age(),
            result_hit_rate: results.hit_rate(),
            store_hits: store.hits,
            store_misses: store.misses,
            store_appends: store.appends,
            patched: 0,
            p50_latency_secs: shared.latency.quantile(0.50),
            p99_latency_secs: shared.latency.quantile(0.99),
            p999_latency_secs: shared.latency.quantile(0.999),
            max_latency_secs: shared.latency.max_seconds(),
            hit_lane: LaneSnapshot::of(&shared.hit_latency),
            synth_lane: LaneSnapshot::of(&shared.synth_latency),
        }
    }

    /// The Prometheus-style text exposition behind the wire protocol's
    /// `metrics` op and `pchls serve --metrics`: this service's own
    /// registry (request counters and latency histograms record in
    /// place; cache-, result- and store-tier series are mirrored from
    /// [`Service::stats`] at scrape time) followed by the process-wide
    /// registry (the persistent store's disk timings).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let m = &self.shared.metrics;
        let mirror = |name: &str, value: u64| m.counter(name).store(value);
        mirror("pchls_compile_cache_hits_total", stats.cache_hits);
        mirror("pchls_compile_cache_misses_total", stats.cache_misses);
        mirror("pchls_compile_cache_coalesced_total", stats.cache_coalesced);
        mirror("pchls_compile_cache_evictions_total", stats.cache_evictions);
        mirror("pchls_result_tier_hits_total", stats.result_hits);
        mirror("pchls_result_tier_misses_total", stats.result_misses);
        mirror("pchls_result_tier_evictions_total", stats.result_evictions);
        mirror("pchls_store_tier_hits_total", stats.store_hits);
        mirror("pchls_store_tier_misses_total", stats.store_misses);
        mirror("pchls_store_appends_total", stats.store_appends);
        let gauge = |name: &str, value: f64| m.gauge(name).set(value);
        gauge("pchls_queue_depth", stats.queue_depth as f64);
        gauge("pchls_workers", stats.workers as f64);
        gauge("pchls_shards", stats.shards as f64);
        gauge("pchls_compile_cache_entries", stats.cache_entries as f64);
        gauge("pchls_result_tier_entries", stats.result_entries as f64);
        format!("{}{}", m.render(), pchls_obs::global().render())
    }

    /// Stops accepting new jobs, drains the queues and joins the
    /// workers. Also runs on drop; call explicitly to control when the
    /// blocking happens.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for shard in &self.shared.shards {
            shard.lanes.close();
        }
        let mut panicked = 0;
        for pool in self.pools.drain(..) {
            // `join_lossy`, not `join`: this also runs from Drop, which
            // may execute while already unwinding from the very failure
            // that killed a worker — propagating there would double-
            // panic and abort. Surface worker panics only when it is
            // safe to do so.
            panicked += pool.join_lossy();
        }
        if panicked > 0 && !std::thread::panicking() {
            panic!("{panicked} service worker(s) panicked");
        }
        // With the workers gone no one produces results any more; drain
        // the write-behind queue and commit the store footer. The
        // handle is shared — shutting down any one tier settles all.
        if let Some(store) = &self.shared.store {
            store.shutdown();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.shared.workers)
            .field("shards", &self.shared.shards.len())
            .field(
                "queue_depth",
                &self
                    .shared
                    .shards
                    .iter()
                    .map(|s| s.lanes.len())
                    .sum::<usize>(),
            )
            .finish()
    }
}

/// FNV-1a — routes requests that have no graph fingerprint (unknown
/// names, unparseable text) to a stable shard.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl Shared {
    /// Shard + lane for a request. The shard is the graph fingerprint
    /// modulo the shard count (inline `graph_text` is parsed here so
    /// structurally identical text and named requests land on the same
    /// shard and share cache entries); requests whose answer already
    /// sits in that shard's result tier ride the hit lane. The
    /// classification is best-effort — an entry evicted between
    /// admission and processing just makes one hit-lane job do real
    /// work.
    fn route(&self, req: &SubmitRequest) -> (usize, Lane) {
        let n = self.shards.len() as u64;
        let fingerprint = if req.graph_text.is_empty() {
            self.builtin_fingerprints.get(&req.graph).copied()
        } else {
            parse_cdfg(&req.graph_text)
                .ok()
                .map(|g| graph_fingerprint(&g))
        };
        let Some(fingerprint) = fingerprint else {
            // Unknown graph or unparseable text: fails fast in the
            // worker; any stable shard will do.
            let bytes = if req.graph_text.is_empty() {
                req.graph.as_bytes()
            } else {
                req.graph_text.as_bytes()
            };
            return ((fnv1a(bytes) % n) as usize, Lane::Synth);
        };
        let shard = (fingerprint % n) as usize;
        let lane = match validated_constraints(req) {
            Ok(constraints)
                if self.shards[shard]
                    .results
                    .contains(&StoreKey::new(fingerprint, &constraints)) =>
            {
                Lane::Hit
            }
            _ => Lane::Synth,
        };
        (shard, lane)
    }

    /// Processes one job on a worker thread and sends the reply.
    fn process(&self, shard_idx: usize, job: Job) {
        let (response, disposition) = self.respond(&self.shards[shard_idx], &job);
        match disposition {
            Disposition::Completed => &self.completed,
            Disposition::Failed => &self.failed,
            Disposition::Cancelled => &self.cancelled,
        }
        .inc();
        let done = Instant::now();
        let elapsed = done - job.accepted;
        self.latency.record(elapsed);
        match job.lane {
            Lane::Hit => &self.hit_latency,
            Lane::Synth => &self.synth_latency,
        }
        .record(elapsed);
        if pchls_obs::enabled() {
            // Retroactive span: accepted on the front end, finished
            // here — explicit timestamps rather than a scope guard.
            pchls_obs::record_span(
                "serve.request",
                job.accepted,
                done,
                &[
                    ("id", Arg::U64(job.request.id)),
                    ("shard", Arg::U64(shard_idx as u64)),
                    (
                        "lane",
                        Arg::Str(match job.lane {
                            Lane::Hit => "hit",
                            Lane::Synth => "synth",
                        }),
                    ),
                    (
                        "outcome",
                        Arg::Str(match disposition {
                            Disposition::Completed => "completed",
                            Disposition::Failed => "failed",
                            Disposition::Cancelled => "cancelled",
                        }),
                    ),
                ],
            );
        }
        job.reply.send(response);
    }

    fn respond(&self, shard: &Shard, job: &Job) -> (SubmitResponse, Disposition) {
        let req = &job.request;
        let fail = |msg: String| (SubmitResponse::error(req.id, msg), Disposition::Failed);

        // Validate the constraint point up front — the constraints
        // constructor panics on nonsense, a worker must not.
        let constraints = match validated_constraints(req) {
            Ok(c) => c,
            Err(msg) => return fail(msg),
        };
        let graph = match self.resolve_graph(req) {
            Ok(g) => g,
            Err(msg) => return fail(msg),
        };

        // Content-address the *result* before compiling anything: the
        // fingerprint and budget digest name the outcome, so a cached
        // point answers with zero synthesis work — and on the
        // store-backed path, with zero compile work even after a
        // restart.
        let fingerprint = graph_fingerprint(graph.as_ref());
        let key = StoreKey::new(fingerprint, &constraints);
        if let Some(record) = shard.results.lookup(&key) {
            // Determinism makes the reconstruction byte-identical to a
            // fresh `Session::synthesize` for this graph name.
            let point = record.to_point(graph.name());
            return (SubmitResponse::point(req.id, point), Disposition::Completed);
        }

        let compiled = match shard
            .cache
            .get_or_compile_keyed(&self.engine, fingerprint, graph.as_ref())
            .0
        {
            Ok(c) => c,
            Err(e) => return fail(format!("compile failed: {e}")),
        };

        let deadline =
            (req.deadline_ms > 0).then(|| job.accepted + Duration::from_millis(req.deadline_ms));
        let session = self.engine.session(&compiled);
        let outcome =
            session.synthesize_with_progress(constraints.clone(), &self.options, &mut |_| {
                if job.cancel.load(Ordering::Relaxed)
                    || deadline.is_some_and(|d| Instant::now() >= d)
                {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });

        match outcome {
            Err(SynthesisError::Cancelled) => {
                let why = if job.cancel.load(Ordering::Relaxed) {
                    "cancelled"
                } else {
                    "deadline exceeded"
                };
                (SubmitResponse::error(req.id, why), Disposition::Cancelled)
            }
            // Feasible or not, the point is exactly what a direct
            // `Session::batch` would emit — including the null-field
            // shape for infeasible constraints.
            outcome => {
                let trace = outcome
                    .as_ref()
                    .map(|d| pchls_store::trace_bytes(&d.schedule))
                    .unwrap_or_default();
                let point = SynthesisResult {
                    request: SynthesisRequest::new(constraints).with_options(self.options),
                    outcome,
                }
                .to_point(compiled.name());
                // Cache the completed outcome (infeasible included —
                // "no design exists here" is as durable a fact as a
                // design). Cancelled and failed runs are never cached.
                shard
                    .results
                    .insert(StoreRecord::from_point(key, &point, trace));
                (SubmitResponse::point(req.id, point), Disposition::Completed)
            }
        }
    }

    /// Materializes the request's graph: inline text first, then the
    /// built-in benchmark namespace. Named graphs borrow from the
    /// service's prebuilt list — nothing is constructed on the hot
    /// path; only inline text allocates.
    fn resolve_graph(&self, req: &SubmitRequest) -> Result<std::borrow::Cow<'_, Cdfg>, String> {
        if !req.graph_text.is_empty() {
            return parse_cdfg(&req.graph_text)
                .map(std::borrow::Cow::Owned)
                .map_err(|e| format!("parsing graph_text: {e}"));
        }
        if req.graph.is_empty() {
            return Err("request names no graph (set `graph` or `graph_text`)".into());
        }
        self.builtin_graphs
            .iter()
            .find(|g| g.name() == req.graph)
            .map(std::borrow::Cow::Borrowed)
            .ok_or_else(|| format!("unknown graph `{}`", req.graph))
    }
}

/// Checks the request's constraint point and materializes it. (A budget
/// envelope's values are already validated by its `Deserialize` impl;
/// only the horizon fit remains to be checked here.)
fn validated_constraints(req: &SubmitRequest) -> Result<SynthesisConstraints, String> {
    if req.latency == 0 {
        return Err("latency must be a positive cycle count".into());
    }
    if req.latency > MAX_LATENCY {
        return Err(format!(
            "latency {} exceeds the {MAX_LATENCY}-cycle limit",
            req.latency
        ));
    }
    if req.power.is_nan() || req.power < 0.0 {
        return Err("power bound must be non-negative".into());
    }
    if let Some(budget) = &req.budget {
        // Shape-vs-horizon rules live on `PowerBudget` itself (one
        // source of truth with the CLI's `--budget` validation).
        budget.check_horizon(req.latency)?;
    }
    Ok(match &req.budget {
        Some(budget) => SynthesisConstraints::new(req.latency, budget.clone()),
        None => SynthesisConstraints::new(req.latency, req.power),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_core::SweepPoint;
    use pchls_fulib::paper_library;

    fn service(workers: usize) -> Service {
        Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        )
    }

    /// The direct-engine reference for one constraint point.
    fn direct_point(engine: &Engine, graph: &str, latency: u32, power: f64) -> SweepPoint {
        let g = benchmarks::all()
            .into_iter()
            .find(|g| g.name() == graph)
            .unwrap();
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let constraints = SynthesisConstraints::new(latency, power);
        SynthesisResult {
            request: SynthesisRequest::new(constraints.clone()),
            outcome: session.synthesize(constraints, &SynthesisOptions::default()),
        }
        .to_point(compiled.name())
    }

    #[test]
    fn served_point_is_byte_identical_to_direct_synthesis() {
        let service = service(2);
        for (id, (graph, t, p)) in [("hal", 17, 25.0), ("hal", 10, 40.0), ("cosine", 15, 40.0)]
            .into_iter()
            .enumerate()
        {
            let resp = service.call(SubmitRequest::synth(id as u64, graph, t, p));
            assert!(resp.ok, "{graph} T={t} P={p}: {:?}", resp.error);
            let served = serde_json::to_string(&resp.point.unwrap()).unwrap();
            let direct =
                serde_json::to_string(&direct_point(service.engine(), graph, t, p)).unwrap();
            assert_eq!(served, direct, "{graph} T={t} P={p}");
        }
    }

    #[test]
    fn infeasible_points_answer_ok_with_null_fields() {
        let service = service(1);
        let resp = service.call(SubmitRequest::synth(1, "hal", 17, 1.0));
        assert!(resp.ok, "infeasible is a served outcome, not a failure");
        let point = resp.point.unwrap();
        assert!(!point.is_feasible());
        let served = serde_json::to_string(&point).unwrap();
        let direct =
            serde_json::to_string(&direct_point(service.engine(), "hal", 17, 1.0)).unwrap();
        assert_eq!(served, direct);
    }

    #[test]
    fn repeated_graphs_hit_the_cache() {
        let service = service(2);
        for id in 0..6 {
            let resp = service.call(SubmitRequest::synth(id, "hal", 17, 20.0 + id as f64));
            assert!(resp.ok);
        }
        let stats = service.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits + stats.cache_coalesced, 5);
        assert!(stats.cache_hit_rate > 0.0);
        assert!(stats.p50_latency_secs > 0.0);
        assert!(stats.max_latency_secs > 0.0);
        // One graph ⇒ one fingerprint ⇒ one shard served everything.
        assert!(stats.shards >= 1);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn bad_requests_fail_without_panicking_a_worker() {
        let service = service(1);
        for (req, needle) in [
            (SubmitRequest::synth(1, "hal", 0, 25.0), "latency"),
            // Per-cycle ledger rows for this horizon would not fit in
            // memory: rejected before any allocation, not aborted.
            (
                SubmitRequest::synth(7, "hal", 4_000_000_000, 25.0),
                "latency",
            ),
            (SubmitRequest::synth(2, "hal", 17, -1.0), "power"),
            (SubmitRequest::synth(3, "hal", 17, f64::NAN), "power"),
            (
                SubmitRequest::synth(4, "nonexistent", 17, 25.0),
                "unknown graph",
            ),
            (SubmitRequest::synth(5, "", 17, 25.0), "names no graph"),
            (
                SubmitRequest::synth_text(6, "this is not a dfg", 17, 25.0),
                "parsing graph_text",
            ),
        ] {
            let id = req.id;
            let resp = service.call(req);
            assert!(!resp.ok);
            assert_eq!(resp.id, id);
            let msg = resp.error.unwrap();
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
        // The workers survived all of it.
        assert!(service.call(SubmitRequest::synth(9, "hal", 17, 25.0)).ok);
        assert_eq!(service.stats().failed, 7);
    }

    #[test]
    fn constant_budget_requests_answer_byte_identically_to_scalar_ones() {
        use pchls_core::PowerBudget;
        let service = service(1);
        let scalar = service.call(SubmitRequest::synth(1, "hal", 17, 25.0));
        let budget = service
            .call(SubmitRequest::synth(2, "hal", 17, 0.0).with_budget(PowerBudget::constant(25.0)));
        assert!(scalar.ok && budget.ok);
        assert_eq!(
            serde_json::to_string(&scalar.point.unwrap()).unwrap(),
            serde_json::to_string(&budget.point.unwrap()).unwrap(),
        );
    }

    #[test]
    fn envelope_requests_are_served_and_respect_the_tight_phase() {
        use pchls_core::PowerBudget;
        let service = service(1);
        // Loose early, tight late: still feasible at T=30, but the
        // design's late cycles must obey the 12.0 phase.
        let budget = PowerBudget::steps(vec![(0, 40.0), (15, 12.0)]);
        let resp =
            service.call(SubmitRequest::synth(1, "hal", 30, 0.0).with_budget(budget.clone()));
        assert!(resp.ok, "{:?}", resp.error);
        let point = resp.point.unwrap();
        assert!(point.is_feasible());
        // The reported bound is the envelope's peak.
        assert_eq!(point.power_bound, 40.0);
    }

    #[test]
    fn malformed_budget_shapes_fail_cleanly() {
        use pchls_core::PowerBudget;
        let service = service(1);
        let wrong_len = service.call(
            SubmitRequest::synth(1, "hal", 17, 0.0)
                .with_budget(PowerBudget::per_cycle(vec![25.0; 5])),
        );
        assert!(!wrong_len.ok);
        assert!(wrong_len.error.unwrap().contains("17"));
        let late_step = service.call(
            SubmitRequest::synth(2, "hal", 17, 0.0)
                .with_budget(PowerBudget::steps(vec![(0, 30.0), (40, 10.0)])),
        );
        assert!(!late_step.ok);
        assert!(late_step.error.unwrap().contains("cycle 40"));
        // Workers survived.
        assert!(service.call(SubmitRequest::synth(9, "hal", 17, 25.0)).ok);
    }

    #[test]
    fn inline_graph_text_round_trips_through_the_service() {
        let g = benchmarks::hal();
        let text = pchls_cdfg::write_cdfg(&g);
        let service = service(1);
        let via_text = service.call(SubmitRequest::synth_text(1, &text, 17, 25.0));
        let via_name = service.call(SubmitRequest::synth(2, "hal", 17, 25.0));
        assert_eq!(via_text.point, via_name.point);
        // Same structure ⇒ same fingerprint ⇒ same shard and same
        // result key: the second call is a tier-1 result hit and never
        // even reaches the compile cache.
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.result_misses, 1);
    }

    #[test]
    fn identical_constraint_points_hit_the_result_tier() {
        let service = service(1);
        let first = service.call(SubmitRequest::synth(1, "hal", 17, 25.0));
        let second = service.call(SubmitRequest::synth(2, "hal", 17, 25.0));
        assert_eq!(
            serde_json::to_string(&first.point.unwrap()).unwrap(),
            serde_json::to_string(&second.point.unwrap()).unwrap(),
        );
        let stats = service.stats();
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.result_entries, 1);
        assert!(stats.result_entry_bytes > 0);
        assert!((stats.result_hit_rate - 0.5).abs() < 1e-12);
        // The repeat was classified at admission and rode the hit lane.
        assert_eq!(stats.hit_lane.count, 1);
        assert_eq!(stats.synth_lane.count, 1);
        // Infeasible outcomes are cached facts too.
        let inf_a = service.call(SubmitRequest::synth(3, "hal", 17, 1.0));
        let inf_b = service.call(SubmitRequest::synth(4, "hal", 17, 1.0));
        assert_eq!(inf_a.point, inf_b.point);
        assert!(!inf_b.point.unwrap().is_feasible());
        assert_eq!(service.stats().result_hits, 2);
    }

    #[test]
    fn store_backed_service_answers_warm_after_restart() {
        let dir = std::env::temp_dir().join(format!("pchls-serve-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || ServiceConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let points = [(17u32, 25.0), (10, 40.0), (17, 1.0)];
        let cold: Vec<String> = {
            let service = Service::start(Engine::new(paper_library()), config());
            let cold = points
                .iter()
                .enumerate()
                .map(|(id, &(t, p))| {
                    let resp = service.call(SubmitRequest::synth(id as u64, "hal", t, p));
                    serde_json::to_string(&resp.point.unwrap()).unwrap()
                })
                .collect();
            service.shutdown();
            cold
        };

        // A brand-new service over the same store dir: every point is
        // answered from disk, byte-identical, without one compile —
        // and, classified by the store's index, on the hit lane.
        let service = Service::start(Engine::new(paper_library()), config());
        for (id, (&(t, p), want)) in points.iter().zip(&cold).enumerate() {
            let resp = service.call(SubmitRequest::synth(10 + id as u64, "hal", t, p));
            assert_eq!(&serde_json::to_string(&resp.point.unwrap()).unwrap(), want);
        }
        let stats = service.stats();
        assert_eq!(stats.store_hits, 3, "all three served from the store");
        assert_eq!(stats.cache_misses, 0, "nothing was compiled");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.hit_lane.count, 3, "store index fed the hit lane");
        service.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A graph big enough that synthesis takes many iterations (and
    /// well over a millisecond), so cancellation paths are exercised
    /// deterministically.
    fn chunky_graph_text() -> String {
        let g = pchls_cdfg::random_dag(&pchls_cdfg::RandomDagConfig {
            ops: 150,
            inputs: 6,
            outputs: 3,
            mul_permille: 300,
            depth_bias: 2,
            seed: 42,
        });
        pchls_cdfg::write_cdfg(&g)
    }

    /// A latency bound comfortably inside the feasible region of the
    /// chunky graph (twice its critical path), so a cancelled run was
    /// genuinely in progress rather than rejected as infeasible.
    fn chunky_latency(service: &Service, text: &str) -> u32 {
        let g = parse_cdfg(text).unwrap();
        service.engine().compile(&g).min_latency() * 2
    }

    #[test]
    fn cancel_flag_aborts_a_run() {
        let service = service(1);
        let text = chunky_graph_text();
        let latency = chunky_latency(&service, &text);
        let (tx, rx) = std::sync::mpsc::channel();
        let cancel = service
            .submit(SubmitRequest::synth_text(1, &text, latency, 60.0), tx)
            .unwrap();
        cancel.store(true, Ordering::Relaxed);
        let resp = rx.recv().unwrap();
        // The flag was set before the first hook check could pass, so
        // the run must come back cancelled.
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("cancelled"));
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn immediate_deadline_cancels() {
        let service = service(1);
        let text = chunky_graph_text();
        let latency = chunky_latency(&service, &text);
        let resp =
            service.call(SubmitRequest::synth_text(1, &text, latency, 60.0).with_deadline_ms(1));
        // A 1ms deadline on a 150-op synthesis must trip the hook.
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("deadline exceeded"));
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn shutdown_drains_and_joins() {
        let service = service(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for id in 0..4 {
            service
                .submit(SubmitRequest::synth(id, "hal", 17, 25.0), tx.clone())
                .unwrap();
        }
        drop(tx);
        service.shutdown();
        // Every queued job was still answered.
        assert_eq!(rx.iter().count(), 4);
    }

    #[test]
    fn try_submit_sheds_with_a_well_formed_error_when_a_shard_is_full() {
        // One shard, one worker, a one-deep synth lane. Park the worker
        // on a slow job, fill the lane, then watch admission refuse.
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 1,
                shards: 1,
                queue_cap: 1,
                ..ServiceConfig::default()
            },
        );
        let text = chunky_graph_text();
        let latency = chunky_latency(&service, &text);
        let (tx, rx) = std::sync::mpsc::channel();
        // Two slow jobs: one runs, one waits in the one-slot lane.
        let slow = SubmitRequest::synth_text(1, &text, latency, 60.0);
        let first = service.submit(slow.clone(), tx.clone()).unwrap();
        // Wait until the worker has taken the first job off the queue,
        // then occupy the freed slot.
        let occupied = std::time::Instant::now();
        loop {
            match service.try_submit(
                SubmitRequest::synth_text(2, &text, latency, 60.0),
                tx.clone(),
            ) {
                SubmitOutcome::Accepted(_) => break,
                SubmitOutcome::Overloaded => {
                    assert!(
                        occupied.elapsed() < Duration::from_secs(20),
                        "worker never drained the first job"
                    );
                    // The shed was answered; consume it and retry.
                    let resp = rx.recv().unwrap();
                    assert_eq!(resp.error.as_deref(), Some("overloaded"));
                    std::thread::sleep(Duration::from_millis(1));
                }
                SubmitOutcome::ShuttingDown => unreachable!("service is running"),
            }
        }
        // Queue is now provably full: the next try_submit must shed and
        // must answer on the channel, well-formed, with the right id.
        let before = service.stats().shed;
        match service.try_submit(
            SubmitRequest::synth_text(77, &text, latency, 60.0),
            tx.clone(),
        ) {
            SubmitOutcome::Overloaded => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let resp = rx.recv().unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.id, 77);
        assert_eq!(resp.error.as_deref(), Some("overloaded"));
        assert!(service.stats().shed > before);
        // Unblock and drain.
        first.store(true, Ordering::Relaxed);
        drop(tx);
        service.shutdown();
    }

    #[test]
    fn try_submit_answers_shutting_down_after_close() {
        let service = service(1);
        let (tx, rx) = std::sync::mpsc::channel();
        // Shut down, then poke the corpse through a second handle's
        // worth of API: lanes are closed, so admission must refuse.
        for shard in &service.shared.shards {
            shard.lanes.close();
        }
        match service.try_submit(SubmitRequest::synth(5, "hal", 17, 25.0), tx) {
            SubmitOutcome::ShuttingDown => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        let resp = rx.recv().unwrap();
        assert_eq!(resp.id, 5);
        assert!(resp.error.unwrap().contains("shutting down"));
    }

    #[test]
    fn hit_lane_answers_while_every_synth_worker_is_busy() {
        // One shard, one synth worker. Park the synth worker on a slow
        // job; a warm repeat must still be answered promptly by the
        // dedicated hit worker.
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 1,
                shards: 1,
                ..ServiceConfig::default()
            },
        );
        // Warm the result tier.
        assert!(service.call(SubmitRequest::synth(1, "hal", 17, 25.0)).ok);
        let text = chunky_graph_text();
        let latency = chunky_latency(&service, &text);
        let (slow_tx, slow_rx) = std::sync::mpsc::channel();
        let cancel = service
            .submit(SubmitRequest::synth_text(2, &text, latency, 60.0), slow_tx)
            .unwrap();
        // While the lone synth worker grinds, the warm point answers.
        let warm = service.call(SubmitRequest::synth(3, "hal", 17, 25.0));
        assert!(warm.ok, "hit lane starved behind a synthesis job");
        assert_eq!(service.stats().hit_lane.count, 1);
        cancel.store(true, Ordering::Relaxed);
        let _ = slow_rx.recv();
        service.shutdown();
    }

    #[test]
    fn sharded_service_keeps_results_byte_identical() {
        // Four shards, several graphs: routing must not change answers.
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 2,
                shards: 4,
                ..ServiceConfig::default()
            },
        );
        for (id, (graph, t, p)) in [
            ("hal", 17, 25.0),
            ("cosine", 15, 40.0),
            ("hal", 10, 40.0),
            ("cosine", 20, 30.0),
        ]
        .into_iter()
        .enumerate()
        {
            let resp = service.call(SubmitRequest::synth(id as u64, graph, t, p));
            assert!(resp.ok, "{graph}: {:?}", resp.error);
            let served = serde_json::to_string(&resp.point.unwrap()).unwrap();
            let direct =
                serde_json::to_string(&direct_point(service.engine(), graph, t, p)).unwrap();
            assert_eq!(served, direct, "{graph} T={t} P={p}");
        }
        assert_eq!(service.stats().shards, 4);
    }
}
