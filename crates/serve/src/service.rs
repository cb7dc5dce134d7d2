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
//! shedding admission: past the shard's admission bound the
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
    Engine, PowerBudget, SynthesisConstraints, SynthesisError, SynthesisOptions, SynthesisRequest,
    SynthesisResult,
};
use pchls_obs::{Arg, Counter, Histogram, MetricsRegistry};
use pchls_par::WorkerPool;
use pchls_store::{StoreKey, StoreRecord};

use crate::cache::{self, CompileCache};
use crate::lanes::{Lane, LaneQueues, PushRefusal};
use crate::protocol::{SubmitRequest, SubmitResponse};
use crate::results::{self, ResultTier, StoreHandle};
use crate::stats::{LaneSnapshot, ServiceStats};

/// Tuning knobs of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Synthesis worker threads across all shards (0 = one per
    /// available core, i.e. [`pchls_par::thread_count`]), spread evenly
    /// with at least one per shard, so more shards than workers runs
    /// one synthesis worker per shard. Each shard additionally runs one
    /// dedicated hit-lane worker.
    pub workers: usize,
    /// Maximum jobs waiting per lane across the service — divided
    /// evenly over the shards (each lane of each shard gets
    /// `queue_cap / shards`, at least 1). [`Service::call`] blocks at
    /// the bound (backpressure); the network front ends shed.
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
    /// TCP front end (0 = only the final line at exit). The reactor
    /// loop waits at most until the next line is due, so an idle server
    /// still reports.
    pub stats_interval: u64,
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
            rate_per_sec: 0.0,
            burst: 32.0,
            max_line_bytes: 1 << 20,
            stats_interval: 0,
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

/// What [`Service::submit_sink`] did with a request.
#[derive(Debug)]
pub(crate) enum SubmitOutcome {
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

/// A request's graph and its fingerprint, resolved once at admission,
/// or the error reply naming why it could not be.
type ResolvedGraph = Result<(Arc<Cdfg>, u64), String>;

/// One queued synthesis job.
pub(crate) struct Job {
    request: SubmitRequest,
    graph: ResolvedGraph,
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
}

/// State shared between the front ends, the shards and the workers.
struct Shared {
    engine: Engine,
    shards: Vec<Shard>,
    /// This service's own metrics registry (per-instance, not global,
    /// so exact-count tests never observe another service's traffic):
    /// the one home of every counter `stats` and `metrics_text` report.
    /// The handles below, and the shards' cache counters, are resolved
    /// from it once at startup.
    metrics: MetricsRegistry,
    latency: Arc<Histogram>,
    hit_latency: Arc<Histogram>,
    synth_latency: Arc<Histogram>,
    /// Name → built-in graph and its fingerprint, constructed once so
    /// resolving a named request is one hash lookup, not a rebuild of
    /// the benchmark suite or a fingerprint computation.
    builtins: HashMap<String, (Arc<Cdfg>, u64)>,
    limits: FrontendLimits,
    /// Worker threads spawned, synth and hit lanes together.
    workers: usize,
    requests: Counter,
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    shed: Counter,
    rate_limited: Counter,
    /// Jobs whose processing panicked (each answered `internal error`).
    panics: Counter,
}

/// A running synthesis service: an [`Engine`] fronted by sharded
/// content-addressed caches and bounded two-lane queues consumed by
/// dedicated [`WorkerPool`]s (see the module docs for the sharding and
/// admission story).
///
/// In-process requests enter through [`call`](Service::call)
/// (synchronous, blocking backpressure); the stdio/TCP front ends
/// ([`serve_stdio`](crate::serve_stdio) / [`serve_tcp`](crate::serve_tcp))
/// adapt the wire protocol onto a non-blocking admission path that
/// sheds under load. Dropping the service closes the queues, drains
/// in-flight jobs and joins the workers.
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
        let metrics = MetricsRegistry::new();
        let store = config
            .store_dir
            .as_deref()
            .map(|dir| StoreHandle::open(dir, &metrics))
            .transpose()?;
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard {
                cache: CompileCache::new(per(config.cache_cap), &metrics),
                results: ResultTier::with_store(per(config.result_cap), store.clone(), &metrics),
                lanes: LaneQueues::new(lane_cap, lane_cap),
            })
            .collect();
        // Spread the synth workers over the shards, at least one each.
        let synth_counts: Vec<usize> = (0..shard_count)
            .map(|idx| {
                (synth_workers / shard_count + usize::from(idx < synth_workers % shard_count))
                    .max(1)
            })
            .collect();
        // One hit worker per shard rides along with the synth pools.
        let workers = synth_counts.iter().sum::<usize>() + shard_count;
        metrics.gauge("pchls_workers").set(workers as f64);
        metrics.gauge("pchls_shards").set(shard_count as f64);
        let builtins = benchmarks::all()
            .into_iter()
            .map(|g| {
                let fingerprint = graph_fingerprint(&g);
                (g.name().to_string(), (Arc::new(g), fingerprint))
            })
            .collect();
        let shared = Arc::new(Shared {
            engine,
            shards,
            latency: metrics.histogram("pchls_request_latency_seconds"),
            hit_latency: metrics.histogram("pchls_lane_latency_seconds{lane=\"hit\"}"),
            synth_latency: metrics.histogram("pchls_lane_latency_seconds{lane=\"synth\"}"),
            builtins,
            limits: FrontendLimits {
                rate_per_sec: config.rate_per_sec.max(0.0),
                burst: config.burst,
                max_line_bytes: config.max_line_bytes.max(1),
                stats_interval: config.stats_interval,
            },
            workers,
            requests: metrics.counter("pchls_requests_total"),
            completed: metrics.counter("pchls_requests_completed_total"),
            failed: metrics.counter("pchls_requests_failed_total"),
            cancelled: metrics.counter("pchls_requests_cancelled_total"),
            shed: metrics.counter("pchls_requests_shed_total"),
            rate_limited: metrics.counter("pchls_requests_rate_limited_total"),
            panics: metrics.counter("pchls_worker_panics_total"),
            metrics,
        });
        let mut pools = Vec::with_capacity(2 * shard_count);
        for (idx, count) in synth_counts.into_iter().enumerate() {
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
    pub(crate) fn submit(
        &self,
        request: SubmitRequest,
        reply: Sender<SubmitResponse>,
    ) -> Result<Arc<AtomicBool>, SubmitRequest> {
        let (shard, job) = self.shared.admit(request, ReplySink::Channel(reply));
        let cancel = Arc::clone(&job.cancel);
        self.shared.shards[shard]
            .lanes
            .push(job.lane, job)
            .map_err(|job| job.request)?;
        // Count only after the push: a request rejected at shutdown was
        // never "accepted into the queue" (the documented meaning).
        self.shared.requests.inc();
        Ok(cancel)
    }

    /// Non-blocking admission — the network front ends' path. Refused
    /// requests (shard past its admission bound, or shutdown) are
    /// *answered*, not dropped: a well-formed error response is sent on
    /// `sink` before this returns.
    pub(crate) fn submit_sink(&self, request: SubmitRequest, sink: ReplySink) -> SubmitOutcome {
        let (shard_idx, job) = self.shared.admit(request, sink);
        let shard = &self.shared.shards[shard_idx];
        let cancel = Arc::clone(&job.cancel);
        match shard.lanes.try_push(job.lane, job) {
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

    /// Records one wire line the front end answers inline with an error
    /// (unparseable, over-long, or an unknown op): a failed request that
    /// never reached a queue.
    pub(crate) fn note_bad_request(&self) {
        self.shared.failed.inc();
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

    /// A metrics snapshot (served immediately; never queued behind
    /// synthesis jobs). Every count is read from the service's registry,
    /// which all shards count into; entries and bytes are summed over
    /// the shards' LRUs.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let count = |name: &str| shared.metrics.counter(name).get();
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let resident = |of: fn(&Shard) -> (usize, u64)| {
            shared
                .shards
                .iter()
                .map(of)
                .fold((0, 0), |(n, b), (dn, db)| (n + dn, b + db))
        };
        let (cache_entries, cache_entry_bytes) = resident(|s| s.cache.resident());
        let (result_entries, result_entry_bytes) = resident(|s| s.results.resident());
        let (cache_hits, cache_misses, cache_coalesced, cache_evictions) = (
            count(cache::HITS),
            count(cache::MISSES),
            count(cache::COALESCED),
            count(cache::EVICTIONS),
        );
        let (result_hits, result_misses, result_evictions) = (
            count(results::HITS),
            count(results::MISSES),
            count(results::EVICTIONS),
        );
        ServiceStats {
            requests: shared.requests.get(),
            completed: shared.completed.get(),
            failed: shared.failed.get(),
            cancelled: shared.cancelled.get(),
            shed: shared.shed.get(),
            rate_limited: shared.rate_limited.get(),
            queue_depth: shared.queue_depth(),
            workers: shared.workers,
            shards: shared.shards.len(),
            cache_entries,
            cache_hits,
            cache_misses,
            cache_coalesced,
            cache_evictions,
            cache_hit_rate: ratio(cache_hits, cache_hits + cache_misses + cache_coalesced),
            cache_entry_bytes,
            cache_mean_eviction_age: ratio(count(cache::EVICTION_AGES), cache_evictions),
            result_entries,
            result_hits,
            result_misses,
            result_evictions,
            result_entry_bytes,
            result_mean_eviction_age: ratio(count(results::EVICTION_AGES), result_evictions),
            result_hit_rate: ratio(result_hits, result_hits + result_misses),
            store_hits: count(results::STORE_HITS),
            store_misses: count(results::STORE_MISSES),
            store_appends: count(results::STORE_APPENDS),
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
    /// registry (every counter and latency histogram records in place;
    /// the queue-depth and entry gauges are set from a [`Service::stats`]
    /// snapshot at scrape time) followed by the process-wide registry
    /// (the persistent store's disk timings).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        // The snapshot also registers the store series a storeless
        // service never touches, so every scrape carries them.
        let stats = self.stats();
        let m = &self.shared.metrics;
        let gauge = |name: &str, value: usize| m.gauge(name).set(value as f64);
        gauge("pchls_queue_depth", stats.queue_depth);
        gauge("pchls_compile_cache_entries", stats.cache_entries);
        gauge("pchls_result_tier_entries", stats.result_entries);
        format!("{}{}", m.render(), pchls_obs::global().render())
    }
}

impl Drop for Service {
    /// Closes the queues, drains in-flight jobs and joins the workers.
    /// The shards then drop with the service, and the store handle they
    /// shared drains its write-behind queue and commits the footer.
    fn drop(&mut self) {
        for shard in &self.shared.shards {
            shard.lanes.close();
        }
        let mut panicked = 0;
        for pool in self.pools.drain(..) {
            // `join_lossy`, not `join`: drop may run while already
            // unwinding from the very failure that killed a worker —
            // propagating there would double-panic and abort. Surface
            // worker panics only when it is safe to do so.
            panicked += pool.join_lossy();
        }
        if panicked > 0 && !std::thread::panicking() {
            panic!("{panicked} service worker(s) panicked");
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("workers", &self.shared.workers)
            .field("shards", &self.shared.shards.len())
            .field("queue_depth", &self.shared.queue_depth())
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
    /// Jobs waiting across all shards and lanes.
    fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.lanes.len()).sum()
    }

    /// A request as a job replying on `reply`, and the shard it goes
    /// to. The shard is the graph fingerprint modulo the shard count
    /// (inline `graph_text` is parsed here, once, so structurally
    /// identical text and named requests land on the same shard and
    /// share cache entries); requests whose answer already sits in that
    /// shard's result tier ride the hit lane. The classification is
    /// best-effort — an entry evicted between admission and processing
    /// just makes one hit-lane job do real work.
    fn admit(&self, request: SubmitRequest, reply: ReplySink) -> (usize, Job) {
        let n = self.shards.len() as u64;
        let graph = self.resolve_graph(&request);
        let (shard, lane) = match &graph {
            Ok((_, fingerprint)) => {
                let shard = (fingerprint % n) as usize;
                let hit = validated_constraints(&request).is_ok_and(|constraints| {
                    self.shards[shard]
                        .results
                        .contains(&StoreKey::new(*fingerprint, &constraints))
                });
                (shard, if hit { Lane::Hit } else { Lane::Synth })
            }
            // Unknown graph or unparseable text: fails fast in the
            // worker; any stable shard will do.
            Err(_) => {
                let bytes = if request.graph_text.is_empty() {
                    request.graph.as_bytes()
                } else {
                    request.graph_text.as_bytes()
                };
                ((fnv1a(bytes) % n) as usize, Lane::Synth)
            }
        };
        let job = Job {
            request,
            graph,
            cancel: Arc::new(AtomicBool::new(false)),
            reply,
            accepted: Instant::now(),
            lane,
        };
        (shard, job)
    }

    /// Processes one job on a worker thread and sends the reply. A panic
    /// while answering is caught here: the job is answered `internal
    /// error` under its request id, counted, and the worker lives on.
    fn process(&self, shard_idx: usize, job: Job) {
        let (response, disposition) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.respond(&self.shards[shard_idx], &job)
            }))
            .unwrap_or_else(|_| {
                self.panics.inc();
                (
                    SubmitResponse::error(job.request.id, "internal error"),
                    Disposition::Failed,
                )
            });
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
        #[cfg(test)]
        assert_ne!(req.graph, tests::PANIC_GRAPH, "injected job panic");
        let fail = |msg: String| (SubmitResponse::error(req.id, msg), Disposition::Failed);

        // Validate the constraint point up front — the constraints
        // constructor panics on nonsense, a worker must not.
        let constraints = match validated_constraints(req) {
            Ok(c) => c,
            Err(msg) => return fail(msg),
        };
        let (graph, fingerprint) = match &job.graph {
            Ok((graph, fingerprint)) => (graph.as_ref(), *fingerprint),
            Err(msg) => return fail(msg.clone()),
        };

        // Content-address the *result* before compiling anything: the
        // fingerprint and budget digest name the outcome, so a cached
        // point answers with zero synthesis work — and on the
        // store-backed path, with zero compile work even after a
        // restart.
        let key = StoreKey::new(fingerprint, &constraints);
        if let Some(record) = shard.results.lookup(&key) {
            // Determinism makes the reconstruction byte-identical to a
            // fresh `Session::synthesize` for this graph name.
            let point = record.to_point(graph.name());
            return (SubmitResponse::point(req.id, point), Disposition::Completed);
        }

        let compiled = match shard
            .cache
            .get_or_compile_keyed(&self.engine, fingerprint, graph)
        {
            Ok(c) => c,
            Err(e) => return fail(format!("compile failed: {e}")),
        };

        let deadline =
            (req.deadline_ms > 0).then(|| job.accepted + Duration::from_millis(req.deadline_ms));
        let session = self.engine.session(&compiled);
        let options = SynthesisOptions::default();
        let outcome = session.synthesize_with_progress(constraints.clone(), &options, &mut |_| {
            if job.cancel.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d) {
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
                    request: SynthesisRequest::new(constraints),
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

    /// Resolves and fingerprints the request's graph: inline text
    /// first, then the built-in benchmark namespace. Named graphs share
    /// the service's prebuilt copies; only inline text is parsed.
    fn resolve_graph(&self, req: &SubmitRequest) -> ResolvedGraph {
        if !req.graph_text.is_empty() {
            let graph =
                parse_cdfg(&req.graph_text).map_err(|e| format!("parsing graph_text: {e}"))?;
            let fingerprint = graph_fingerprint(&graph);
            return Ok((Arc::new(graph), fingerprint));
        }
        if req.graph.is_empty() {
            return Err("request names no graph (set `graph` or `graph_text`)".into());
        }
        self.builtins
            .get(&req.graph)
            .cloned()
            .ok_or_else(|| format!("unknown graph `{}`", req.graph))
    }
}

/// The request's constraint point, checked by the rules that own it in
/// the order a front end reads them: the latency, the scalar bound (even
/// when an envelope replaces it), then the envelope's fit to the latency.
fn validated_constraints(req: &SubmitRequest) -> Result<SynthesisConstraints, String> {
    let latency = SynthesisConstraints::check_latency(req.latency)?;
    let scalar = PowerBudget::try_constant(req.power).map_err(|e| e.message)?;
    let budget = match &req.budget {
        None => scalar,
        Some(budget) => {
            budget.check_horizon(latency).map_err(|e| e.message)?;
            budget.clone()
        }
    };
    SynthesisConstraints::try_new(latency, budget)
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
        direct_point_of(engine, &g, latency, power)
    }

    /// [`direct_point`] for a graph in hand.
    fn direct_point_of(engine: &Engine, g: &Cdfg, latency: u32, power: f64) -> SweepPoint {
        let compiled = engine.compile(g);
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

    /// A graph name whose job panics inside [`Shared::respond`].
    pub(super) const PANIC_GRAPH: &str = "panic!";

    #[test]
    fn a_panicking_job_is_answered_and_its_worker_survives() {
        let service = service(1);
        let resp = service.call(SubmitRequest::synth(3, PANIC_GRAPH, 17, 25.0));
        assert!(!resp.ok);
        assert_eq!(resp.id, 3);
        assert_eq!(resp.error.as_deref(), Some("internal error"));
        // The sole synth worker survived and keeps serving.
        for id in 4..6 {
            assert!(service.call(SubmitRequest::synth(id, "hal", 17, 25.0)).ok);
        }
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (2, 1));
        assert!(service
            .metrics_text()
            .contains("pchls_worker_panics_total 1\n"));
        // Dropping joins every worker without a panic to re-raise.
        drop(service);
    }

    #[test]
    fn constant_budget_requests_answer_byte_identically_to_scalar_ones() {
        use pchls_core::PowerBudget;
        let service = service(1);
        let scalar = service.call(SubmitRequest::synth(1, "hal", 17, 25.0));
        let budget = service.call(SubmitRequest {
            budget: Some(PowerBudget::constant(25.0)),
            ..SubmitRequest::synth(2, "hal", 17, 0.0)
        });
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
        let resp = service.call(SubmitRequest {
            budget: Some(budget.clone()),
            ..SubmitRequest::synth(1, "hal", 30, 0.0)
        });
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
        let wrong_len = service.call(SubmitRequest {
            budget: Some(PowerBudget::per_cycle(vec![25.0; 5])),
            ..SubmitRequest::synth(1, "hal", 17, 0.0)
        });
        assert!(!wrong_len.ok);
        assert!(wrong_len.error.unwrap().contains("17"));
        let late_step = service.call(SubmitRequest {
            budget: Some(PowerBudget::steps(vec![(0, 30.0), (40, 10.0)])),
            ..SubmitRequest::synth(2, "hal", 17, 0.0)
        });
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
        // Same spelling ⇒ same fingerprint ⇒ same shard and same
        // result key: the second call is a tier-1 result hit and never
        // even reaches the compile cache.
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.result_misses, 1);
    }

    #[test]
    fn a_relabelled_spelling_is_served_its_own_answer() {
        // hal with its node ids reversed: the same dataflow, spelled
        // with forward operand ids. Ids steer the kernel, so the two
        // spellings answer differently and must not share a result key.
        let hal = benchmarks::hal();
        let n = hal.len();
        let flip = |id: pchls_cdfg::NodeId| pchls_cdfg::NodeId::new((n - 1 - id.index()) as u32);
        let nodes = hal
            .nodes()
            .iter()
            .rev()
            .map(|nd| (nd.kind(), nd.label().to_owned()))
            .collect();
        let edges = hal
            .edges()
            .iter()
            .map(|e| pchls_cdfg::Edge {
                from: flip(e.from),
                to: flip(e.to),
                port: e.port,
            })
            .collect();
        let reversed = Cdfg::from_parts(hal.name(), nodes, edges).unwrap();
        let text = pchls_cdfg::write_cdfg(&reversed);
        let (t, p) = (10, 40.0);
        let service = service(1);
        let json = |point: &SweepPoint| serde_json::to_string(point).unwrap();
        let direct_hal = direct_point_of(service.engine(), &hal, t, p);
        let direct_text = direct_point_of(service.engine(), &parse_cdfg(&text).unwrap(), t, p);
        assert_ne!(json(&direct_hal), json(&direct_text), "the spellings agree");

        let named = service.call(SubmitRequest::synth(1, "hal", t, p));
        assert_eq!(json(&named.point.unwrap()), json(&direct_hal));
        let served = service.call(SubmitRequest::synth_text(2, &text, t, p));
        assert_eq!(json(&served.point.unwrap()), json(&direct_text));
        assert_eq!(service.stats().result_hits, 0);
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
            drop(service);
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
        drop(service);
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
        drop(service);
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
            match service.submit_sink(
                SubmitRequest::synth_text(2, &text, latency, 60.0),
                ReplySink::Channel(tx.clone()),
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
        // Queue is now provably full: the next submission must shed and
        // must answer on the channel, well-formed, with the right id.
        let before = service.stats().shed;
        match service.submit_sink(
            SubmitRequest::synth_text(77, &text, latency, 60.0),
            ReplySink::Channel(tx.clone()),
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
        drop(service);
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
        match service.submit_sink(
            SubmitRequest::synth(5, "hal", 17, 25.0),
            ReplySink::Channel(tx),
        ) {
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
        drop(service);
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
        let stats = service.stats();
        assert_eq!(stats.shards, 4);
        // Two synth workers spread over four shards still give every
        // shard one, plus each shard's hit worker.
        assert_eq!(stats.workers, 8);
    }
}
