//! Kernel-focused scaling benchmark: times the serial synthesis kernel
//! itself (not the sweep layer) on the paper's benchmarks and on
//! progressively larger random CDFGs, and writes the measurement to
//! `BENCH_2.json` (`pchls-bench-v1`, workload `synthesis-kernel`). A
//! second workload, `engine-amortized`, times a whole constraint sweep
//! through one compile-once [`Session`] against a per-point-recompute
//! path (a fresh engine and compile per point) and writes `BENCH_3.json`.
//! A third workload, `service-throughput`, drives M concurrent clients
//! × K requests each through the `pchls-serve` [`Service`] (bounded
//! queue, worker pool, content-addressed compile cache) over a
//! repeated-graph mix, asserts every response is **byte-identical** to
//! direct [`Session::synthesize`] output, and writes `BENCH_4.json`.
//!
//! A fourth workload, `envelope-kernel`, measures the [`PowerBudget`]
//! generalization (`BENCH_5.json`): the scalar path vs. an equal-bound
//! constant envelope (which must collapse to the scalar fast path —
//! byte-identical designs, parity wall clock) and a genuinely stepwise
//! envelope driving the slack-min ledger mode.
//!
//! A fifth workload, `scaling`, records an honest per-thread-count
//! wall-clock curve (`BENCH_6.json`): the sweep fan-out (one Figure 2
//! curve through [`Session::sweep`]) is timed under
//! [`pchls_par::with_thread_count`] at 1/2/4/8 workers capped at the
//! pool width. On a single-core host the curve degrades gracefully to
//! an explicit one-point record (`single_point: true`); on multi-core
//! hosts the sweep curve must hit parallel efficiency ≥ 0.6 at two
//! threads and never degrade by more than 10% when threads are added.
//! Outputs must be identical across every thread count, always.
//! `PCHLS_THREADS` widens or pins the pool, making curves reproducible.
//!
//! A sixth workload, `store`, measures the persistent result store
//! (`BENCH_7.json`): a rand200-class constraint grid synthesized cold
//! vs. read warm from a `pchls-store` file — full records and
//! area-column-only partial reads — with every store-served point
//! byte-diffed against the fresh session output.
//!
//! A seventh workload, `overload`, drives the reactor TCP front end
//! (`BENCH_8.json`): a warm phase (concurrent clients over a
//! result-tier-hot mix, byte-diffed and throughput-compared against the
//! committed `service-throughput` number), an overload phase (a burst
//! of heavy synthesis jobs into one deliberately tiny shard, asserting
//! every request is answered — shed ones with a well-formed
//! `overloaded` error, zero malformed or dropped — while warm probes
//! keep flowing on the hit lane), and a rate-limit phase (a pipelined
//! flood through a per-connection token bucket). Every phase shuts its
//! serve loop down cleanly through a [`ShutdownHandle`].
//!
//! An eighth workload, `phases`, measures the `pchls-obs` tracing layer
//! on the synthesis kernel (`BENCH_9.json`): the rand200 case timed
//! with tracing disabled vs. enabled (outputs byte-diffed — spans must
//! never perturb the decision trace), per-phase wall-clock totals from
//! the recorded spans (compile, candidate scoring, ledger fits, FDS
//! refits, TopK, commit), and a disabled-path microbenchmark (ns per
//! span site with the tracer off) that bounds the overhead the
//! instrumentation adds when nobody is tracing.
//!
//! A ninth workload, `edits`, replays random single-op graph edits
//! through the incremental re-synthesis path (`BENCH_10.json`): each
//! edit is synthesized cold (full compile + full kernel run) and
//! incrementally ([`diff`] + a cold [`Engine::try_compile`] of the
//! edited graph + [`Session::resynthesize`](pchls_core::Session) seeded
//! from a recorded base run), the two designs are byte-diffed — decision
//! traces and effort counters included — and the per-edit wall-clock
//! ratio is recorded with its median asserted on multi-core hosts.
//!
//! `--smoke` runs a seconds-scale subset (small graphs, one repetition)
//! so CI can keep the workloads from rotting.
//!
//! The synthesis kernel itself is serial; the cores are used at a
//! coarser grain (sweep points, batch jobs, serve workers). Where a
//! workload compares two paths, both sides are compared for exact
//! equality (`outputs_identical`): the amortized session must reproduce
//! the per-point designs bit for bit, and every thread count must
//! reproduce the 1-thread sweep.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

use serde::Serialize;

use pchls_bench::{figure2_power_grid, scale_random_case};
use pchls_cdfg::{benchmarks, diff, write_cdfg, Cdfg};
use pchls_core::{
    Engine, PowerBudget, Session, SweepSpec, SynthesisConstraints, SynthesisOptions,
    SynthesisRequest, SynthesizedDesign,
};
use pchls_fulib::{paper_library, ModuleLibrary};
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ShutdownHandle, SubmitRequest, SubmitResponse,
};

/// One timed case of the kernel workload.
struct Case {
    name: String,
    graph: Cdfg,
    constraints: SynthesisConstraints,
}

/// Per-case record in `BENCH_2.json`.
#[derive(Debug, Serialize)]
struct CaseRecord {
    /// Case label (benchmark name or random-graph descriptor).
    name: String,
    /// Node count of the CDFG.
    nodes: usize,
    /// Latency constraint `T`.
    latency_bound: u32,
    /// Power constraint `P<`.
    power_bound: f64,
    /// Timed synthesis repetitions.
    reps: usize,
    /// Wall-clock seconds for all `reps` kernel runs.
    serial_secs: f64,
    /// Whether synthesis succeeded.
    feasible: bool,
}

/// The perf-trajectory record (`BENCH_*.json`), same top-level fields as
/// `suite`'s `BENCH_1.json` so the trajectory stays comparable.
#[derive(Debug, Serialize)]
struct BenchRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Timed synthesis runs (cases × reps).
    points: usize,
    /// Host cores (`available_parallelism`).
    host_cores: usize,
    /// Sum of the per-case kernel seconds.
    serial_secs: f64,
    /// Per-case breakdown.
    cases: Vec<CaseRecord>,
}

/// Per-case record of the `engine-amortized` workload (`BENCH_3.json`).
#[derive(Debug, Serialize)]
struct AmortizedCaseRecord {
    /// Benchmark name.
    name: String,
    /// Node count of the CDFG.
    nodes: usize,
    /// Latency constraint `T` of the sweep.
    latency_bound: u32,
    /// Grid points in the sweep.
    points: usize,
    /// Timing repetitions (minimum taken per side).
    reps: usize,
    /// Best wall-clock seconds for the per-point-recompute path (one
    /// throwaway engine + compile per grid point).
    per_point_secs: f64,
    /// Best wall-clock seconds for the compile-once session path.
    amortized_secs: f64,
    /// `per_point_secs / amortized_secs`.
    speedup: f64,
}

/// The `engine-amortized` trajectory record (`BENCH_3.json`).
#[derive(Debug, Serialize)]
struct AmortizedRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Total synthesis points per side (sum over cases).
    points: usize,
    /// Both sides run serially (the comparison isolates compile
    /// amortization, not parallel fan-out).
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Sum of the per-case best per-point-path seconds.
    per_point_secs: f64,
    /// Sum of the per-case best amortized-path seconds.
    amortized_secs: f64,
    /// `per_point_secs / amortized_secs`.
    speedup: f64,
    /// Whether the session designs equal the per-point designs bit for
    /// bit on every point.
    outputs_identical: bool,
    /// Per-case breakdown.
    cases: Vec<AmortizedCaseRecord>,
}

/// A random-graph case, delegated to [`scale_random_case`] so the bench
/// bins and the committed golden trace are pinned to the same graphs.
fn random_case(ops: usize, seed: u64, power: f64) -> Case {
    let (name, graph, constraints) = scale_random_case(ops, seed, power);
    Case {
        name,
        graph,
        constraints,
    }
}

fn paper_case(graph: Cdfg, latency: u32, power: f64) -> Case {
    Case {
        name: graph.name().to_owned(),
        constraints: SynthesisConstraints::new(latency, power),
        graph,
    }
}

/// The `synthesis-kernel` workload: the serial kernel timed through
/// one shared session per case (BENCH_2.json).
fn kernel_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    let (cases, reps) = if smoke {
        (
            vec![
                paper_case(benchmarks::hal(), 17, 25.0),
                random_case(30, 11, 60.0),
            ],
            1,
        )
    } else {
        (
            vec![
                paper_case(benchmarks::hal(), 17, 25.0),
                paper_case(benchmarks::cosine(), 15, 40.0),
                paper_case(benchmarks::elliptic(), 22, 30.0),
                random_case(60, 11, 60.0),
                random_case(120, 12, 60.0),
                random_case(200, 13, 60.0),
            ],
            3,
        )
    };

    let mut records = Vec::new();
    println!(
        "{:<12} {:>5} {:>4} {:>6} | {:>10}",
        "case", "nodes", "T", "P<", "serial_s"
    );
    println!("{}", "-".repeat(44));
    for case in &cases {
        let compiled = engine.compile(&case.graph);
        let session = engine.session(&compiled);
        // Warm-up (untimed) run so allocator state is comparable.
        let feasible = session.synthesize(case.constraints.clone(), opts).is_ok();

        let start = Instant::now();
        for _ in 0..reps {
            drop(session.synthesize(case.constraints.clone(), opts));
        }
        let serial_secs = start.elapsed().as_secs_f64();
        println!(
            "{:<12} {:>5} {:>4} {:>6} | {:>10.4}",
            case.name,
            case.graph.len(),
            case.constraints.latency,
            case.constraints.max_power(),
            serial_secs,
        );
        records.push(CaseRecord {
            name: case.name.clone(),
            nodes: case.graph.len(),
            latency_bound: case.constraints.latency,
            power_bound: case.constraints.max_power(),
            reps,
            serial_secs,
            feasible,
        });
    }

    let record = BenchRecord {
        schema: "pchls-bench-v1".into(),
        workload: "synthesis-kernel".into(),
        points: records.len() * reps,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serial_secs: records.iter().map(|r| r.serial_secs).sum(),
        cases: records,
    };
    println!("\ntotal: serial {:.3}s", record.serial_secs);
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_2.json", json).expect("write BENCH_2.json");
    eprintln!("wrote BENCH_2.json");
}

/// One serial pass over `grid` through the per-point-recompute path:
/// a throwaway engine + compile for every point.
fn sweep_per_point(
    graph: &Cdfg,
    library: &ModuleLibrary,
    latency: u32,
    grid: &[f64],
    opts: &SynthesisOptions,
) -> Vec<Result<SynthesizedDesign, pchls_core::SynthesisError>> {
    grid.iter()
        .map(|&p| {
            let engine = Engine::new(library.clone());
            let compiled = engine.compile(graph);
            engine
                .session(&compiled)
                .synthesize(SynthesisConstraints::new(latency, p), opts)
        })
        .collect()
}

/// One serial pass over `grid` through the compile-once session.
fn sweep_amortized(
    session: &Session<'_>,
    latency: u32,
    grid: &[f64],
    opts: &SynthesisOptions,
) -> Vec<Result<SynthesizedDesign, pchls_core::SynthesisError>> {
    grid.iter()
        .map(|&p| session.synthesize(SynthesisConstraints::new(latency, p), opts))
        .collect()
}

/// The `engine-amortized` workload: a whole power sweep per benchmark,
/// compile-once session vs. per-point recompute, both fully serial
/// (BENCH_3.json). Best-of-`reps` per side filters scheduler noise.
fn amortized_workload(smoke: bool, opts: &SynthesisOptions) {
    let library = paper_library();
    let engine = Engine::new(library.clone());
    let full_grid = figure2_power_grid();
    let thin_grid: Vec<f64> = full_grid.iter().copied().step_by(5).collect();
    // (graph, T, grid): the Figure 2 hal/cosine/elliptic curves.
    let (cases, reps): (Vec<(Cdfg, u32, Vec<f64>)>, usize) = if smoke {
        (vec![(benchmarks::hal(), 17, thin_grid)], 2)
    } else {
        (
            vec![
                (benchmarks::hal(), 17, full_grid.clone()),
                (benchmarks::cosine(), 15, full_grid.clone()),
                (benchmarks::elliptic(), 22, full_grid),
            ],
            5,
        )
    };

    println!(
        "\n{:<12} {:>5} {:>4} {:>6} | {:>12} {:>12} {:>7}",
        "sweep", "nodes", "T", "points", "per_point_s", "amortized_s", "speedup"
    );
    println!("{}", "-".repeat(72));
    let mut records = Vec::new();
    let mut outputs_identical = true;
    for (graph, latency, grid) in &cases {
        let compiled = engine.compile(graph);
        let session = engine.session(&compiled);
        // Warm-up + equality check (untimed).
        let reference = sweep_per_point(graph, &library, *latency, grid, opts);
        let amortized_designs = sweep_amortized(&session, *latency, grid, opts);
        let identical = reference
            .iter()
            .zip(&amortized_designs)
            .all(|(a, b)| match (a, b) {
                (Ok(x), Ok(y)) => x == y && x.stats == y.stats,
                (Err(_), Err(_)) => true,
                _ => false,
            });
        outputs_identical &= identical;

        let mut per_point_secs = f64::INFINITY;
        let mut amortized_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let out = sweep_per_point(graph, &library, *latency, grid, opts);
            per_point_secs = per_point_secs.min(start.elapsed().as_secs_f64());
            drop(out);

            let start = Instant::now();
            let out = sweep_amortized(&session, *latency, grid, opts);
            amortized_secs = amortized_secs.min(start.elapsed().as_secs_f64());
            drop(out);
        }
        println!(
            "{:<12} {:>5} {:>4} {:>6} | {:>12.4} {:>12.4} {:>6.2}x",
            graph.name(),
            graph.len(),
            latency,
            grid.len(),
            per_point_secs,
            amortized_secs,
            per_point_secs / amortized_secs,
        );
        records.push(AmortizedCaseRecord {
            name: graph.name().to_owned(),
            nodes: graph.len(),
            latency_bound: *latency,
            points: grid.len(),
            reps,
            per_point_secs,
            amortized_secs,
            speedup: per_point_secs / amortized_secs,
        });
    }

    let per_point_secs: f64 = records.iter().map(|r| r.per_point_secs).sum();
    let amortized_secs: f64 = records.iter().map(|r| r.amortized_secs).sum();
    let record = AmortizedRecord {
        schema: "pchls-bench-v1".into(),
        workload: "engine-amortized".into(),
        points: records.iter().map(|r| r.points).sum(),
        threads: 1,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        per_point_secs,
        amortized_secs,
        speedup: per_point_secs / amortized_secs,
        outputs_identical,
        cases: records,
    };
    println!(
        "\ntotal: per-point {:.3}s | amortized {:.3}s | speedup {:.2}x | identical: {}",
        record.per_point_secs, record.amortized_secs, record.speedup, record.outputs_identical
    );
    assert!(
        record.outputs_identical,
        "compile-once session diverged from the per-point recompute path"
    );
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_3.json", json).expect("write BENCH_3.json");
    eprintln!("wrote BENCH_3.json");
}

/// The `service-throughput` trajectory record (`BENCH_4.json`).
#[derive(Debug, Serialize)]
struct ServiceRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Total requests served (clients × requests-per-client).
    points: usize,
    /// Worker threads the service ran.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Concurrent client threads.
    clients: usize,
    /// Requests each client submitted.
    requests_per_client: usize,
    /// Wall-clock seconds from first submission to last reply.
    wall_secs: f64,
    /// `points / wall_secs`.
    throughput_rps: f64,
    /// Compile-cache lookups served from a completed compile.
    cache_hits: u64,
    /// Compile-cache lookups that compiled a new entry.
    cache_misses: u64,
    /// Compile-cache lookups that joined an in-flight compile.
    cache_coalesced: u64,
    /// `cache_hits / lookups` — the repeated-graph mix must keep this
    /// above zero.
    cache_hit_rate: f64,
    /// Median accept→reply latency in seconds (bucketed).
    p50_latency_secs: f64,
    /// 99th-percentile accept→reply latency in seconds (bucketed).
    p99_latency_secs: f64,
    /// Whether every served point was byte-identical to a direct
    /// `Session::synthesize` call.
    outputs_identical: bool,
}

/// The request of client `c`, position `r`, over `mix`: graphs cycle
/// per client offset, power bounds cycle over a fixed grid. Pure, so
/// the reference side enumerates the identical set.
fn service_request(
    mix: &[(&str, u32)],
    c: usize,
    r: usize,
    per_client: usize,
) -> (String, u32, f64) {
    const POWERS: [f64; 4] = [15.0, 25.0, 40.0, 60.0];
    let (graph, latency) = mix[(c + r) % mix.len()];
    let power = POWERS[(c * per_client + r) % POWERS.len()];
    (graph.to_owned(), latency, power)
}

/// The `service-throughput` workload: M concurrent clients × K requests
/// through a running [`Service`], byte-diffed against the direct
/// session path (BENCH_4.json).
fn service_workload(smoke: bool, opts: &SynthesisOptions) {
    let (clients, per_client, mix): (usize, usize, Vec<(&str, u32)>) = if smoke {
        (4, 12, vec![("hal", 17), ("cosine", 15)])
    } else {
        (8, 50, vec![("hal", 17), ("cosine", 15), ("elliptic", 22)])
    };

    // Direct-engine reference for every distinct request, serialized
    // the same way the service serializes its `point` field. Computed
    // up front so the timed section is pure service traffic.
    let engine = Engine::new(paper_library());
    let mut reference: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for c in 0..clients {
        for r in 0..per_client {
            let (graph, latency, power) = service_request(&mix, c, r, per_client);
            let key = format!("{graph}/{latency}/{power}");
            if reference.contains_key(&key) {
                continue;
            }
            let g = benchmarks::all()
                .into_iter()
                .find(|g| g.name() == graph)
                .unwrap();
            let compiled = engine.compile(&g);
            let constraints = SynthesisConstraints::new(latency, power);
            let point = pchls_core::SynthesisResult {
                request: pchls_core::SynthesisRequest::new(constraints.clone()).with_options(*opts),
                outcome: engine.session(&compiled).synthesize(constraints, opts),
            }
            .to_point(compiled.name());
            reference.insert(
                key,
                serde_json::to_string(&point).expect("point serializes"),
            );
        }
    }

    let service = Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            options: *opts,
            ..ServiceConfig::default()
        },
    );

    // M clients, each pipelining K requests and collecting K replies.
    let start = Instant::now();
    let mismatches: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (service, mix, reference) = (&service, &mix, &reference);
                scope.spawn(move || {
                    let (tx, rx) = std::sync::mpsc::channel();
                    for r in 0..per_client {
                        let (graph, latency, power) = service_request(mix, c, r, per_client);
                        let id = (c * per_client + r) as u64;
                        service
                            .submit(SubmitRequest::synth(id, &graph, latency, power), tx.clone())
                            .expect("service accepts while running");
                    }
                    drop(tx);
                    let mut bad = 0usize;
                    for resp in rx {
                        let r = (resp.id as usize) % per_client;
                        let (graph, latency, power) = service_request(mix, c, r, per_client);
                        let served = resp
                            .point
                            .as_ref()
                            .map(|p| serde_json::to_string(p).expect("point serializes"));
                        let expected = &reference[&format!("{graph}/{latency}/{power}")];
                        if !resp.ok || served.as_deref() != Some(expected.as_str()) {
                            bad += 1;
                        }
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let stats = service.stats();
    let points = clients * per_client;
    let record = ServiceRecord {
        schema: "pchls-bench-v1".into(),
        workload: "service-throughput".into(),
        points,
        threads: stats.workers,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        clients,
        requests_per_client: per_client,
        wall_secs,
        throughput_rps: points as f64 / wall_secs,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_coalesced: stats.cache_coalesced,
        cache_hit_rate: stats.cache_hit_rate,
        p50_latency_secs: stats.p50_latency_secs,
        p99_latency_secs: stats.p99_latency_secs,
        outputs_identical: mismatches == 0,
    };
    println!(
        "\nservice: {} clients x {} requests | {:.3}s wall | {:.0} req/s | \
         cache {}h/{}m/{}c (hit rate {:.2}) | p50 {:.4}s p99 {:.4}s | identical: {}",
        clients,
        per_client,
        record.wall_secs,
        record.throughput_rps,
        record.cache_hits,
        record.cache_misses,
        record.cache_coalesced,
        record.cache_hit_rate,
        record.p50_latency_secs,
        record.p99_latency_secs,
        record.outputs_identical,
    );
    assert!(
        record.outputs_identical,
        "{mismatches} service response(s) diverged from direct Session::synthesize output"
    );
    assert!(
        record.cache_hit_rate > 0.0,
        "a repeated-graph mix must produce compile-cache hits"
    );
    service.shutdown();
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_4.json", json).expect("write BENCH_4.json");
    eprintln!("wrote BENCH_4.json");
}

/// Per-case record of the `envelope-kernel` workload (`BENCH_5.json`).
#[derive(Debug, Serialize)]
struct EnvelopeCaseRecord {
    /// Case label.
    name: String,
    /// Node count of the CDFG.
    nodes: usize,
    /// Latency constraint `T`.
    latency_bound: u32,
    /// The scalar bound the envelopes derive from.
    power_bound: f64,
    /// Timing repetitions (minimum taken per side).
    reps: usize,
    /// Best wall-clock seconds under the scalar `f64` bound (the
    /// pre-envelope fast path).
    scalar_secs: f64,
    /// Best wall-clock seconds under an equal-bound `per_cycle`
    /// envelope — must collapse to the same constant-mode ledger.
    constant_budget_secs: f64,
    /// Best wall-clock seconds under a stepwise envelope (loose first
    /// half, the scalar bound after), driving the slack-min tree.
    stepwise_secs: f64,
    /// Whether the constant-envelope design is byte-identical to the
    /// scalar one (it must be).
    constant_identical: bool,
    /// Whether the stepwise envelope was feasible.
    stepwise_feasible: bool,
    /// Whether the stepwise design differs from the scalar one (the
    /// early headroom is allowed to change the schedule).
    stepwise_differs: bool,
}

/// The `envelope-kernel` trajectory record (`BENCH_5.json`).
#[derive(Debug, Serialize)]
struct EnvelopeRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Synthesis runs per side (cases × reps).
    points: usize,
    /// All sides run serially.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Sum of per-case best scalar seconds.
    scalar_secs: f64,
    /// Sum of per-case best constant-envelope seconds.
    constant_budget_secs: f64,
    /// `constant_budget_secs / scalar_secs` — the envelope plumbing's
    /// overhead on the scalar path (must stay ≈ 1.0).
    constant_overhead: f64,
    /// Sum of per-case best stepwise-envelope seconds.
    stepwise_secs: f64,
    /// Whether every constant-envelope design matched its scalar twin
    /// byte for byte.
    outputs_identical: bool,
    /// Per-case breakdown.
    cases: Vec<EnvelopeCaseRecord>,
}

/// The `envelope-kernel` workload: scalar vs. constant-envelope parity
/// plus a stepwise-envelope run through the slack-min ledger
/// (BENCH_5.json).
fn envelope_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    let (cases, reps) = if smoke {
        (
            vec![
                paper_case(benchmarks::hal(), 17, 25.0),
                random_case(30, 11, 60.0),
            ],
            2,
        )
    } else {
        (
            vec![
                paper_case(benchmarks::hal(), 17, 25.0),
                paper_case(benchmarks::cosine(), 15, 40.0),
                paper_case(benchmarks::elliptic(), 22, 30.0),
                random_case(120, 12, 60.0),
                random_case(200, 13, 60.0),
            ],
            3,
        )
    };

    println!(
        "\n{:<12} {:>5} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>5} {:>7}",
        "envelope", "nodes", "T", "P<", "scalar_s", "const_s", "steps_s", "ident", "differs"
    );
    println!("{}", "-".repeat(78));
    let mut records = Vec::new();
    let mut outputs_identical = true;
    for case in &cases {
        let compiled = engine.compile(&case.graph);
        let session = engine.session(&compiled);
        let t = case.constraints.latency;
        let p = case.constraints.max_power();
        let scalar_c = SynthesisConstraints::new(t, p);
        // Equal bound in every cycle, spelled as an envelope: must be
        // detected and run on the constant-mode (scalar) ledger.
        let constant_c = SynthesisConstraints::new(t, PowerBudget::per_cycle(vec![p; t as usize]));
        // Loose first half, the scalar bound after — a genuine
        // envelope, feasible whenever the scalar point is.
        let stepwise_c =
            SynthesisConstraints::new(t, PowerBudget::steps(vec![(0, p * 1.5), (t / 2, p)]));

        let scalar_d = session.synthesize(scalar_c.clone(), opts);
        let constant_d = session.synthesize(constant_c.clone(), opts);
        let stepwise_d = session.synthesize(stepwise_c.clone(), opts);
        // Everything but the `constraints` field (which rightly records
        // the request's own budget spelling) must match bit for bit.
        let constant_identical = match (&scalar_d, &constant_d) {
            (Ok(a), Ok(b)) => {
                a.schedule == b.schedule
                    && a.timing == b.timing
                    && a.binding == b.binding
                    && a.area == b.area
                    && a.latency == b.latency
                    && a.peak_power.to_bits() == b.peak_power.to_bits()
                    && a.stats == b.stats
            }
            (Err(_), Err(_)) => true,
            _ => false,
        };
        outputs_identical &= constant_identical;
        let stepwise_feasible = stepwise_d.is_ok();
        let stepwise_differs = match (&scalar_d, &stepwise_d) {
            (Ok(a), Ok(b)) => a.schedule != b.schedule || a.binding != b.binding,
            _ => true,
        };

        let mut best = [f64::INFINITY; 3];
        for _ in 0..reps {
            for (i, c) in [&scalar_c, &constant_c, &stepwise_c]
                .into_iter()
                .enumerate()
            {
                let start = Instant::now();
                let out = session.synthesize(c.clone(), opts);
                best[i] = best[i].min(start.elapsed().as_secs_f64());
                drop(out);
            }
        }
        println!(
            "{:<12} {:>5} {:>4} {:>6} | {:>9.4} {:>9.4} {:>9.4} {:>5} {:>7}",
            case.name,
            case.graph.len(),
            t,
            p,
            best[0],
            best[1],
            best[2],
            constant_identical,
            stepwise_differs,
        );
        records.push(EnvelopeCaseRecord {
            name: case.name.clone(),
            nodes: case.graph.len(),
            latency_bound: t,
            power_bound: p,
            reps,
            scalar_secs: best[0],
            constant_budget_secs: best[1],
            stepwise_secs: best[2],
            constant_identical,
            stepwise_feasible,
            stepwise_differs,
        });
    }

    let scalar_secs: f64 = records.iter().map(|r| r.scalar_secs).sum();
    let constant_budget_secs: f64 = records.iter().map(|r| r.constant_budget_secs).sum();
    let stepwise_secs: f64 = records.iter().map(|r| r.stepwise_secs).sum();
    let record = EnvelopeRecord {
        schema: "pchls-bench-v1".into(),
        workload: "envelope-kernel".into(),
        points: records.len() * reps,
        threads: 1,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        scalar_secs,
        constant_budget_secs,
        constant_overhead: constant_budget_secs / scalar_secs,
        stepwise_secs,
        outputs_identical,
        cases: records,
    };
    println!(
        "\ntotal: scalar {:.3}s | constant envelope {:.3}s (overhead {:.2}x) | stepwise {:.3}s | identical: {}",
        record.scalar_secs,
        record.constant_budget_secs,
        record.constant_overhead,
        record.stepwise_secs,
        record.outputs_identical
    );
    assert!(
        record.outputs_identical,
        "a constant envelope diverged from the scalar fast path"
    );
    assert!(
        record.cases.iter().all(|c| c.stepwise_feasible),
        "a stepwise envelope that dominates the scalar bound must stay feasible"
    );
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_5.json", json).expect("write BENCH_5.json");
    eprintln!("wrote BENCH_5.json");
}

/// One per-thread-count curve of the `scaling` workload.
#[derive(Debug, Serialize)]
struct ScalingCurve {
    /// Curve label (`sweep/...`).
    name: String,
    /// Synthesis points per repetition (grid points of the sweep).
    points: usize,
    /// Timing repetitions (minimum taken per thread count).
    reps: usize,
    /// Best wall-clock seconds, parallel to the record's
    /// `thread_counts`.
    wall_secs: Vec<f64>,
    /// `wall_secs[0] / wall_secs[i]` — speedup over the 1-thread run.
    speedup: Vec<f64>,
    /// `speedup[i] / thread_counts[i]` — parallel efficiency.
    efficiency: Vec<f64>,
    /// Whether every thread count reproduced the 1-thread output
    /// exactly.
    outputs_identical: bool,
}

/// The `scaling` trajectory record (`BENCH_6.json`).
#[derive(Debug, Serialize)]
struct ScalingRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Host cores (`available_parallelism`).
    host_cores: usize,
    /// Worker-pool width the curve is capped at ([`pchls_par::thread_count`],
    /// so `PCHLS_THREADS` can widen or pin it).
    threads: usize,
    /// The measured thread counts: 1/2/4/8 capped at the pool width and
    /// deduplicated.
    thread_counts: Vec<usize>,
    /// `true` when only one thread count was measurable (1-core host
    /// without a `PCHLS_THREADS` override) — the curve is a single
    /// point and no efficiency claim is made.
    single_point: bool,
    /// Whether the curve reproduced its 1-thread output at every
    /// thread count.
    outputs_identical: bool,
    /// The measured curves (the sweep fan-out).
    curves: Vec<ScalingCurve>,
}

/// Times `run` best-of-`reps` at every thread count and checks each
/// output against the first (1-thread) one. Returns the wall-clock
/// vector and the identity verdict.
fn time_scaling_curve<T: PartialEq>(
    thread_counts: &[usize],
    reps: usize,
    mut run: impl FnMut() -> T,
) -> (Vec<f64>, bool) {
    // Warm-up (untimed) so allocator state is comparable across counts.
    drop(run());
    let mut wall = Vec::with_capacity(thread_counts.len());
    let mut identical = true;
    let mut reference: Option<T> = None;
    for &t in thread_counts {
        let mut best = f64::INFINITY;
        let mut out = None;
        for _ in 0..reps {
            let start = Instant::now();
            let o = pchls_par::with_thread_count(t, &mut run);
            best = best.min(start.elapsed().as_secs_f64());
            out = Some(o);
        }
        let out = out.expect("reps >= 1");
        match &reference {
            None => reference = Some(out),
            Some(r) => identical &= *r == out,
        }
        wall.push(best);
    }
    (wall, identical)
}

fn scaling_curve_record(
    name: &str,
    points: usize,
    reps: usize,
    thread_counts: &[usize],
    wall_secs: Vec<f64>,
    outputs_identical: bool,
) -> ScalingCurve {
    let speedup: Vec<f64> = wall_secs.iter().map(|&w| wall_secs[0] / w).collect();
    let efficiency: Vec<f64> = speedup
        .iter()
        .zip(thread_counts)
        .map(|(&s, &t)| s / t as f64)
        .collect();
    ScalingCurve {
        name: name.to_owned(),
        points,
        reps,
        wall_secs,
        speedup,
        efficiency,
        outputs_identical,
    }
}

/// The `scaling` workload: the per-thread-count wall-clock curve of the
/// sweep fan-out (BENCH_6.json). Efficiency and monotonicity are
/// asserted whenever more than one thread count is measurable; output
/// identity is asserted always.
fn scaling_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool = pchls_par::thread_count();
    let mut thread_counts: Vec<usize> = [1usize, 2, 4, 8].iter().map(|&t| t.min(pool)).collect();
    thread_counts.dedup();
    let single_point = thread_counts.len() == 1;
    let reps = if smoke { 2 } else { 3 };

    let full_grid = figure2_power_grid();
    let grid: Vec<f64> = if smoke {
        full_grid.iter().copied().step_by(5).collect()
    } else {
        full_grid
    };
    let sweep_graph = benchmarks::hal();
    let sweep_latency = 17u32;

    let sweep_compiled = engine.compile(&sweep_graph);
    let sweep_session = engine.session(&sweep_compiled);
    let (sweep_wall, sweep_identical) = time_scaling_curve(&thread_counts, reps, || {
        sweep_session
            .sweep(&SweepSpec::power(sweep_latency, grid.clone()), opts)
            .into_points()
    });
    let sweep_curve = scaling_curve_record(
        &format!("sweep/{}-T{sweep_latency}", sweep_graph.name()),
        grid.len(),
        reps,
        &thread_counts,
        sweep_wall,
        sweep_identical,
    );

    println!(
        "\nscaling: pool {} of {} host core(s) | thread counts {:?}{}",
        pool,
        host_cores,
        thread_counts,
        if single_point {
            " | single-point (1-core host)"
        } else {
            ""
        }
    );
    println!(
        "{:<18} {:>7} | {}",
        "curve",
        "points",
        thread_counts
            .iter()
            .map(|t| format!("{:>9}", format!("t={t}")))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("{}", "-".repeat(30 + 10 * thread_counts.len()));
    println!(
        "{:<18} {:>7} | {}",
        sweep_curve.name,
        sweep_curve.points,
        sweep_curve
            .wall_secs
            .iter()
            .map(|w| format!("{w:>8.4}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "{:<18} {:>7} | {}",
        "",
        "eff",
        sweep_curve
            .efficiency
            .iter()
            .map(|e| format!("{e:>8.2}x"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let record = ScalingRecord {
        schema: "pchls-bench-v1".into(),
        workload: "scaling".into(),
        host_cores,
        threads: pool,
        thread_counts: thread_counts.clone(),
        single_point,
        outputs_identical: sweep_curve.outputs_identical,
        curves: vec![sweep_curve],
    };
    println!(
        "identical across thread counts: {}",
        record.outputs_identical
    );
    assert!(
        record.outputs_identical,
        "a thread count changed the synthesized output"
    );
    // Efficiency claims need real cores: a PCHLS_THREADS override on a
    // 1-core host still records the curve (reproducibility) but merely
    // oversubscribes, so only genuinely multi-core hosts are asserted.
    if !single_point && host_cores > 1 {
        let sweep = &record.curves[0];
        if let Some(i2) = thread_counts.iter().position(|&t| t == 2) {
            assert!(
                sweep.efficiency[i2] >= 0.6,
                "sweep parallel efficiency at 2 threads fell below 0.6: {:.2}",
                sweep.efficiency[i2]
            );
        }
        for w in sweep.wall_secs.windows(2) {
            assert!(
                w[1] <= w[0] * 1.10,
                "adding sweep threads degraded wall clock beyond 10%: {:?}",
                sweep.wall_secs
            );
        }
    }
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_6.json", json).expect("write BENCH_6.json");
    eprintln!("wrote BENCH_6.json");
}

/// The `store` trajectory record (`BENCH_7.json`).
#[derive(Debug, Serialize)]
struct StoreBenchRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Constraint points in the grid.
    points: usize,
    /// Worker threads the cold (recompute) side may use.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Case label (rand200-class random CDFG).
    case: String,
    /// Node count of the CDFG.
    nodes: usize,
    /// Warm-read timing repetitions (minimum taken per side).
    reps: usize,
    /// Wall-clock seconds to synthesize the whole grid from scratch —
    /// what a second process pays without a store.
    cold_secs: f64,
    /// Best wall-clock seconds to open a cold store handle and read
    /// every record back in full.
    warm_full_secs: f64,
    /// Best wall-clock seconds to open a cold store handle and read
    /// only the key + feasibility + area columns.
    warm_partial_secs: f64,
    /// `cold_secs / warm_full_secs` — what the store tier saves.
    cold_over_warm_full: f64,
    /// `warm_full_secs / warm_partial_secs` — what columnar partial
    /// reads save over full records.
    warm_full_over_partial: f64,
    /// Store file size in bytes.
    file_bytes: u64,
    /// Records in the store.
    store_records: u64,
    /// Uncompressed over compressed column bytes.
    compression_ratio: f64,
    /// Whether every store-served point serialized byte-identically to
    /// the fresh `Session` output.
    outputs_identical: bool,
}

/// The `store` workload: cold grid recompute vs. warm reads from a
/// persistent result store, full-record and area-column-only
/// (BENCH_7.json). Every store-served point must be byte-identical to
/// the fresh [`Session::batch`] output it was materialized from.
fn store_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    use pchls_store::{Store, StoreKey, StoreRecord};

    let (case, grid_steps, reps) = if smoke {
        (random_case(60, 11, 60.0), 8, 10)
    } else {
        (random_case(200, 13, 60.0), 24, 30)
    };
    let compiled = engine.compile(&case.graph);
    let session = engine.session(&compiled);
    let latency = case.constraints.latency;
    let grid = session.auto_power_grid(grid_steps);
    let constraints: Vec<SynthesisConstraints> = grid
        .iter()
        .map(|&p| SynthesisConstraints::new(latency, p))
        .collect();
    let keys: Vec<StoreKey> = constraints
        .iter()
        .map(|c| StoreKey::for_graph(compiled.graph(), c))
        .collect();

    // Cold side: the whole grid synthesized from scratch (parallel over
    // the pool, exactly like a storeless `pchls batch`).
    let start = Instant::now();
    let results = session.batch(
        constraints
            .iter()
            .map(|c| SynthesisRequest::new(c.clone()).with_options(*opts)),
    );
    let cold_secs = start.elapsed().as_secs_f64();
    let fresh_json: Vec<String> = results
        .iter()
        .map(|r| serde_json::to_string(&r.to_point(compiled.name())).expect("point serializes"))
        .collect();

    // Materialize the store the way the CLI/service tier does: full
    // records including the schedule trace.
    let dir = std::env::temp_dir().join("pchls-bench-store");
    let _ = std::fs::remove_dir_all(&dir);
    let records: Vec<StoreRecord> = keys
        .iter()
        .zip(&results)
        .map(|(&key, r)| {
            let trace = r
                .outcome
                .as_ref()
                .map(|d| pchls_store::trace_bytes(&d.schedule))
                .unwrap_or_default();
            StoreRecord::from_point(key, &r.to_point(compiled.name()), trace)
        })
        .collect();
    let stat = {
        let mut store = Store::open(&dir).expect("open bench store");
        store.append(&records).expect("append");
        store.flush().expect("flush");
        store.stat().expect("stat")
    };

    // Warm full reads: a cold handle per rep (open = footer + index),
    // then every record in full — the restarted-service path.
    let mut warm_full_secs = f64::INFINITY;
    let mut warm_records: Vec<StoreRecord> = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let mut store = Store::open(&dir).expect("reopen");
        let out: Vec<StoreRecord> = keys
            .iter()
            .map(|k| store.get(k).expect("read").expect("materialized point"))
            .collect();
        warm_full_secs = warm_full_secs.min(start.elapsed().as_secs_f64());
        warm_records = out;
    }
    let warm_json: Vec<String> = warm_records
        .iter()
        .map(|r| serde_json::to_string(&r.to_point(compiled.name())).expect("point serializes"))
        .collect();
    let outputs_identical = warm_json == fresh_json;

    // Warm partial reads: the same cold handle, but only the key,
    // feasibility and area columns are touched — the area-curve query.
    let mut warm_partial_secs = f64::INFINITY;
    let mut partial_ok = true;
    for _ in 0..reps {
        let start = Instant::now();
        let mut store = Store::open(&dir).expect("reopen");
        let areas = store.scan_areas().expect("scan areas");
        warm_partial_secs = warm_partial_secs.min(start.elapsed().as_secs_f64());
        let by_key: std::collections::HashMap<StoreKey, Option<u64>> = areas.into_iter().collect();
        partial_ok &= keys
            .iter()
            .zip(&results)
            .all(|(k, r)| by_key.get(k).copied() == Some(r.to_point(compiled.name()).area));
    }

    let record = StoreBenchRecord {
        schema: "pchls-bench-v1".into(),
        workload: "store".into(),
        points: grid.len(),
        threads: pchls_par::thread_count(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        case: case.name.clone(),
        nodes: case.graph.len(),
        reps,
        cold_secs,
        warm_full_secs,
        warm_partial_secs,
        cold_over_warm_full: cold_secs / warm_full_secs,
        warm_full_over_partial: warm_full_secs / warm_partial_secs,
        file_bytes: stat.file_bytes,
        store_records: stat.records,
        compression_ratio: stat.compression_ratio(),
        outputs_identical,
    };
    println!(
        "\nstore: {} x {} point(s) | cold {:.4}s | warm full {:.6}s ({:.0}x) | \
         warm partial {:.6}s ({:.2}x over full) | {} bytes, {:.2}x compression | identical: {}",
        record.case,
        record.points,
        record.cold_secs,
        record.warm_full_secs,
        record.cold_over_warm_full,
        record.warm_partial_secs,
        record.warm_full_over_partial,
        record.file_bytes,
        record.compression_ratio,
        record.outputs_identical,
    );
    assert!(
        record.outputs_identical,
        "store-served points diverged from fresh Session output"
    );
    assert!(partial_ok, "partial area reads diverged from full records");
    assert!(
        record.cold_over_warm_full >= 10.0,
        "warm full-record reads must beat cold recompute by >= 10x, got {:.1}x",
        record.cold_over_warm_full
    );
    assert!(
        record.warm_full_over_partial > 1.0,
        "partial column reads must beat full-record reads, got {:.2}x",
        record.warm_full_over_partial
    );
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_7.json", json).expect("write BENCH_7.json");
    eprintln!("wrote BENCH_7.json");
}

/// The warm-path phase of the `overload` workload (`BENCH_8.json`).
#[derive(Debug, Serialize)]
struct WarmPhaseRecord {
    /// Concurrent client connections.
    clients: usize,
    /// Requests each client pipelined.
    requests_per_client: usize,
    /// Wall-clock seconds from first write to last reply.
    wall_secs: f64,
    /// `clients * requests_per_client / wall_secs` over TCP.
    throughput_rps: f64,
    /// The committed `service-throughput` number (`BENCH_4.json`) on
    /// this host, when present — the warm path must not fall below it.
    bench4_throughput_rps: Option<f64>,
    /// Hit-lane latency snapshot after the phase (all warm requests
    /// ride the hit lane).
    hit_lane_p50_secs: f64,
    /// Hit-lane 99.9th percentile in seconds (bucketed).
    hit_lane_p999_secs: f64,
    /// Largest hit-lane latency in seconds (exact).
    hit_lane_max_secs: f64,
    /// Whether every reply was byte-identical to direct `Session`
    /// output.
    outputs_identical: bool,
}

/// The past-capacity phase of the `overload` workload.
#[derive(Debug, Serialize)]
struct OverloadPhaseRecord {
    /// Shards the service ran (deliberately 1).
    shards: usize,
    /// Synthesis workers (deliberately 1).
    workers: usize,
    /// Queue bound — the admission threshold the burst must overflow.
    queue_cap: usize,
    /// Heavy synthesis requests fired past capacity.
    burst_requests: usize,
    /// Warm request/response probes interleaved with the storm.
    warm_probes: usize,
    /// Burst requests served with a synthesis point.
    served: u64,
    /// Burst requests refused with a well-formed `overloaded` error.
    shed: u64,
    /// `shed / burst_requests`.
    shed_rate: f64,
    /// Response lines that failed to parse (must be 0).
    malformed: usize,
    /// Requests that never got a response line (must be 0).
    dropped: usize,
    /// Hit-lane p99.9 during the storm in seconds — the priority lane's
    /// bound while the synth lane is saturated.
    hit_lane_p999_secs: f64,
    /// Largest hit-lane latency in seconds (exact).
    hit_lane_max_secs: f64,
    /// Synth-lane p99.9 in seconds, for contrast.
    synth_lane_p999_secs: f64,
    /// Whether every *served* burst reply was byte-identical to direct
    /// `Session` output.
    outputs_identical: bool,
}

/// The rate-limit phase of the `overload` workload.
#[derive(Debug, Serialize)]
struct RateLimitPhaseRecord {
    /// Token-bucket refill rate (requests/second/connection).
    rate_per_sec: f64,
    /// Token-bucket burst capacity.
    burst: f64,
    /// Requests pipelined down one connection.
    requests: usize,
    /// Requests admitted and answered with a point.
    admitted: u64,
    /// Requests refused with a well-formed `rate_limited` error.
    rate_limited: u64,
}

/// The `overload` trajectory record (`BENCH_8.json`).
#[derive(Debug, Serialize)]
struct OverloadRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Total requests across all three phases.
    points: usize,
    /// Worker threads of the warm-phase service.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Serve loops started and stopped cleanly via [`ShutdownHandle`].
    clean_shutdowns: usize,
    /// Warm-path throughput phase.
    warm: WarmPhaseRecord,
    /// Past-capacity shedding phase.
    overload: OverloadPhaseRecord,
    /// Per-connection token-bucket phase.
    rate_limit: RateLimitPhaseRecord,
}

/// Pipelines `reqs` down one TCP connection, then reads one line per
/// request. Returns the parsed responses plus the counts of malformed
/// lines and missing (connection closed early) responses.
fn tcp_exchange(addr: SocketAddr, reqs: &[SubmitRequest]) -> (Vec<SubmitResponse>, usize, usize) {
    let stream = TcpStream::connect(addr).expect("dial the service");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for req in reqs {
        writeln!(
            writer,
            "{}",
            serde_json::to_string(req).expect("request serializes")
        )
        .expect("write request");
    }
    writer.flush().expect("flush requests");
    let mut responses = Vec::new();
    let mut malformed = 0usize;
    let mut dropped = 0usize;
    for _ in 0..reqs.len() {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read response") == 0 {
            dropped += 1;
            continue;
        }
        match serde_json::from_str::<SubmitResponse>(&line) {
            Ok(resp) => responses.push(resp),
            Err(_) => malformed += 1,
        }
    }
    (responses, malformed, dropped)
}

/// A reactor serve loop on an ephemeral port; `f` runs with the dialed
/// address, then the loop is stopped and its clean exit asserted.
fn with_tcp_service<T>(service: &Service, f: impl FnOnce(SocketAddr) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = ShutdownHandle::new();
    std::thread::scope(|scope| {
        let loop_thread = scope.spawn(|| serve_tcp_with(service, &listener, &shutdown));
        let out = f(addr);
        shutdown.request_stop();
        loop_thread
            .join()
            .expect("serve loop must not panic")
            .expect("serve loop must exit cleanly");
        out
    })
}

/// The `overload` workload: the reactor TCP front end under a warm
/// concurrent mix, past-capacity shedding, and per-connection rate
/// limits (BENCH_8.json). See the module docs for the three phases.
fn overload_workload(smoke: bool, opts: &SynthesisOptions) {
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let engine = Engine::new(paper_library());

    // ---- Phase 1: warm-path throughput --------------------------------
    // Twelve distinct points over the paper benchmarks; pre-warmed into
    // the result tier so the timed traffic rides the hit lane.
    let (clients, per_client) = if smoke { (2, 25) } else { (4, 100) };
    let warm_mix: Vec<(&str, u32, f64)> = ["hal", "cosine", "elliptic"]
        .iter()
        .flat_map(|&g| {
            let t = match g {
                "hal" => 17,
                "cosine" => 15,
                _ => 22,
            };
            [15.0, 25.0, 40.0, 60.0].map(move |p| (g, t, p))
        })
        .collect();
    let reference: Vec<String> = warm_mix
        .iter()
        .map(|&(graph, latency, power)| {
            let g = benchmarks::all()
                .into_iter()
                .find(|g| g.name() == graph)
                .unwrap();
            let compiled = engine.compile(&g);
            let constraints = SynthesisConstraints::new(latency, power);
            let point = pchls_core::SynthesisResult {
                request: pchls_core::SynthesisRequest::new(constraints.clone()).with_options(*opts),
                outcome: engine.session(&compiled).synthesize(constraints, opts),
            }
            .to_point(compiled.name());
            serde_json::to_string(&point).expect("point serializes")
        })
        .collect();

    let warm_service = Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            shards: 4,
            queue_cap: 4096,
            options: *opts,
            ..ServiceConfig::default()
        },
    );
    for (id, &(graph, latency, power)) in warm_mix.iter().enumerate() {
        let resp = warm_service.call(SubmitRequest::synth(id as u64, graph, latency, power));
        assert!(resp.ok, "pre-warm {graph} T={latency} P={power} failed");
    }
    let threads = warm_service.stats().workers;
    let (wall_secs, warm_identical) = with_tcp_service(&warm_service, |addr| {
        let start = Instant::now();
        let mismatches: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (warm_mix, reference) = (&warm_mix, &reference);
                    scope.spawn(move || {
                        let reqs: Vec<SubmitRequest> = (0..per_client)
                            .map(|r| {
                                let (graph, latency, power) = warm_mix[(c + r) % warm_mix.len()];
                                SubmitRequest::synth(
                                    (c * per_client + r) as u64,
                                    graph,
                                    latency,
                                    power,
                                )
                            })
                            .collect();
                        let (responses, malformed, dropped) = tcp_exchange(addr, &reqs);
                        assert_eq!((malformed, dropped), (0, 0), "warm phase lost replies");
                        responses
                            .iter()
                            .filter(|resp| {
                                let r = (resp.id as usize) % per_client;
                                let expected = &reference[(c + r) % warm_mix.len()];
                                let served = resp
                                    .point
                                    .as_ref()
                                    .map(|p| serde_json::to_string(p).expect("point serializes"));
                                !resp.ok || served.as_deref() != Some(expected.as_str())
                            })
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).sum()
        });
        (start.elapsed().as_secs_f64(), mismatches == 0)
    });
    let warm_stats = warm_service.stats();
    warm_service.shutdown();
    let warm_points = clients * per_client;
    let bench4_throughput_rps = std::fs::read_to_string("BENCH_4.json")
        .ok()
        .and_then(|s| serde_json::parse(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(fields) => {
                fields.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("throughput_rps", serde_json::Value::Float(f)) => Some(f),
                    ("throughput_rps", serde_json::Value::Int(i)) => Some(i as f64),
                    _ => None,
                })
            }
            _ => None,
        });
    let warm = WarmPhaseRecord {
        clients,
        requests_per_client: per_client,
        wall_secs,
        throughput_rps: warm_points as f64 / wall_secs,
        bench4_throughput_rps,
        hit_lane_p50_secs: warm_stats.hit_lane.p50_secs,
        hit_lane_p999_secs: warm_stats.hit_lane.p999_secs,
        hit_lane_max_secs: warm_stats.hit_lane.max_secs,
        outputs_identical: warm_identical,
    };
    println!(
        "\noverload/warm: {} clients x {} | {:.3}s wall | {:.0} req/s (BENCH_4: {}) | \
         hit lane p50 {:.5}s p99.9 {:.5}s max {:.5}s | identical: {}",
        clients,
        per_client,
        warm.wall_secs,
        warm.throughput_rps,
        warm.bench4_throughput_rps
            .map_or("n/a".to_owned(), |r| format!("{r:.0} req/s")),
        warm.hit_lane_p50_secs,
        warm.hit_lane_p999_secs,
        warm.hit_lane_max_secs,
        warm.outputs_identical,
    );

    // ---- Phase 2: past capacity ---------------------------------------
    // One shard, one worker, a four-deep lane; a concurrent burst of
    // heavy distinct synthesis jobs must overflow admission while warm
    // probes keep answering on the hit lane.
    let (burst_clients, per_burst, probes, heavy_ops) = if smoke {
        (2, 6, 5, 60)
    } else {
        (3, 8, 20, 120)
    };
    let queue_cap = 4;
    let heavy = {
        let (_, graph, constraints) = scale_random_case(heavy_ops, 21, 60.0);
        (write_cdfg(&graph), constraints.latency)
    };
    let (heavy_text, heavy_latency) = (&heavy.0, heavy.1);
    let heavy_compiled = engine.compile(&pchls_cdfg::parse_cdfg(heavy_text).unwrap());
    let heavy_session = engine.session(&heavy_compiled);
    let heavy_power = |id: u64| 60.0 + (id - 1) as f64;

    let storm_service = Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 1,
            shards: 1,
            queue_cap,
            options: *opts,
            ..ServiceConfig::default()
        },
    );
    assert!(
        storm_service
            .call(SubmitRequest::synth(0, "hal", 17, 25.0))
            .ok
    );
    let burst_requests = burst_clients * per_burst;
    let (all_responses, probe_failures, malformed, dropped) =
        with_tcp_service(&storm_service, |addr| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..burst_clients)
                    .map(|c| {
                        scope.spawn(move || {
                            let reqs: Vec<SubmitRequest> = (0..per_burst)
                                .map(|r| {
                                    let id = (c * per_burst + r) as u64 + 1;
                                    SubmitRequest::synth_text(
                                        id,
                                        heavy_text,
                                        heavy_latency,
                                        heavy_power(id),
                                    )
                                })
                                .collect();
                            tcp_exchange(addr, &reqs)
                        })
                    })
                    .collect();
                // Sequential warm probes while the storm grinds: each
                // must answer before the next is sent.
                let mut probe_failures = 0usize;
                for p in 0..probes {
                    let req = SubmitRequest::synth(1000 + p as u64, "hal", 17, 25.0);
                    let (resp, bad, lost) = tcp_exchange(addr, std::slice::from_ref(&req));
                    if bad + lost > 0 || !resp[0].ok {
                        probe_failures += 1;
                    }
                }
                let mut all = Vec::new();
                let (mut malformed, mut dropped) = (0, 0);
                for h in handles {
                    let (responses, bad, lost) = h.join().expect("burst client");
                    all.extend(responses);
                    malformed += bad;
                    dropped += lost;
                }
                (all, probe_failures, malformed, dropped)
            })
        });
    let served: Vec<&SubmitResponse> = all_responses.iter().filter(|r| r.ok).collect();
    let shed = all_responses
        .iter()
        .filter(|r| r.error.as_deref() == Some("overloaded"))
        .count();
    let storm_identical = served.iter().all(|resp| {
        let constraints = SynthesisConstraints::new(heavy_latency, heavy_power(resp.id));
        let point = pchls_core::SynthesisResult {
            request: pchls_core::SynthesisRequest::new(constraints.clone()).with_options(*opts),
            outcome: heavy_session.synthesize(constraints, opts),
        }
        .to_point(heavy_compiled.name());
        serde_json::to_string(resp.point.as_ref().unwrap()).expect("point serializes")
            == serde_json::to_string(&point).expect("point serializes")
    });
    let storm_stats = storm_service.stats();
    storm_service.shutdown();
    let overload = OverloadPhaseRecord {
        shards: 1,
        workers: 1,
        queue_cap,
        burst_requests,
        warm_probes: probes,
        served: served.len() as u64,
        shed: shed as u64,
        shed_rate: shed as f64 / burst_requests as f64,
        malformed,
        dropped,
        hit_lane_p999_secs: storm_stats.hit_lane.p999_secs,
        hit_lane_max_secs: storm_stats.hit_lane.max_secs,
        synth_lane_p999_secs: storm_stats.synth_lane.p999_secs,
        outputs_identical: storm_identical,
    };
    println!(
        "overload/storm: {} heavy into 1x1 shard (cap {}) | served {} shed {} ({:.0}%) | \
         malformed {} dropped {} | hit lane p99.9 {:.5}s (synth {:.3}s) | identical: {}",
        burst_requests,
        queue_cap,
        overload.served,
        overload.shed,
        overload.shed_rate * 100.0,
        overload.malformed,
        overload.dropped,
        overload.hit_lane_p999_secs,
        overload.synth_lane_p999_secs,
        overload.outputs_identical,
    );

    // ---- Phase 3: per-connection rate limit ---------------------------
    let (rate_per_sec, bucket_burst, rate_requests) = (2.0, 4.0, 20usize);
    let rate_service = Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            shards: 1,
            rate_per_sec,
            burst: bucket_burst,
            options: *opts,
            ..ServiceConfig::default()
        },
    );
    assert!(
        rate_service
            .call(SubmitRequest::synth(0, "hal", 17, 25.0))
            .ok
    );
    let (responses, rate_malformed, rate_dropped) = with_tcp_service(&rate_service, |addr| {
        let reqs: Vec<SubmitRequest> = (0..rate_requests)
            .map(|r| SubmitRequest::synth(r as u64 + 1, "hal", 17, 25.0))
            .collect();
        tcp_exchange(addr, &reqs)
    });
    let rate_stats = rate_service.stats();
    rate_service.shutdown();
    let admitted = responses.iter().filter(|r| r.ok).count() as u64;
    let rate_limited = responses
        .iter()
        .filter(|r| r.error.as_deref() == Some("rate_limited"))
        .count() as u64;
    let rate_limit = RateLimitPhaseRecord {
        rate_per_sec,
        burst: bucket_burst,
        requests: rate_requests,
        admitted,
        rate_limited,
    };
    println!(
        "overload/rate: {} pipelined at {}/s burst {} | admitted {} rate-limited {}",
        rate_requests, rate_per_sec, bucket_burst, admitted, rate_limited,
    );

    let record = OverloadRecord {
        schema: "pchls-bench-v1".into(),
        workload: "overload".into(),
        points: warm_points + burst_requests + probes + rate_requests,
        threads,
        host_cores,
        clean_shutdowns: 3,
        warm,
        overload,
        rate_limit,
    };

    // The admission contract, asserted on the measurement itself.
    assert!(record.warm.outputs_identical, "warm replies diverged");
    if let Some(baseline) = record.warm.bench4_throughput_rps {
        assert!(
            record.warm.throughput_rps >= baseline,
            "warm hit-lane TCP throughput {:.0} req/s fell below the \
             synthesis-bound service-throughput baseline {:.0} req/s",
            record.warm.throughput_rps,
            baseline
        );
    }
    assert_eq!(
        (record.overload.malformed, record.overload.dropped),
        (0, 0),
        "overload must answer every request with a well-formed line"
    );
    assert_eq!(
        record.overload.served + record.overload.shed,
        burst_requests as u64,
        "burst replies must be served or shed, nothing else"
    );
    assert!(
        record.overload.shed > 0,
        "the burst must overflow admission"
    );
    assert!(
        record.overload.served > 0,
        "the worker must serve something"
    );
    assert_eq!(probe_failures, 0, "warm probes starved during the storm");
    assert!(
        record.overload.outputs_identical,
        "served storm replies diverged"
    );
    assert_eq!(
        storm_stats.shed, record.overload.shed,
        "stats disagree with the wire"
    );
    assert!(
        record.overload.hit_lane_p999_secs < 2.0,
        "hit lane p99.9 unbounded under storm: {:.3}s",
        record.overload.hit_lane_p999_secs
    );
    assert_eq!((rate_malformed, rate_dropped), (0, 0));
    assert_eq!(admitted + rate_limited, rate_requests as u64);
    assert!(
        rate_limited > 0,
        "a 20-deep pipeline must trip a burst-4 bucket"
    );
    assert!(admitted >= 4, "the burst allowance must be admitted");
    assert_eq!(
        rate_stats.rate_limited, rate_limited,
        "stats disagree with the wire"
    );

    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_8.json", json).expect("write BENCH_8.json");
    eprintln!("wrote BENCH_8.json");
}

/// One kernel phase's share of the recorded trace (`BENCH_9.json`).
#[derive(Debug, Serialize)]
struct PhaseTotal {
    /// Span name (`engine.compile`, `kernel.score`, …).
    name: String,
    /// Summed wall-clock seconds across the enabled reps.
    total_secs: f64,
    /// Share of the `kernel.synthesize` root spans, in percent.
    share_pct: f64,
}

/// The `phases` trajectory record (`BENCH_9.json`).
#[derive(Debug, Serialize)]
struct PhasesRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Case label.
    case: String,
    /// Node count of the CDFG.
    nodes: usize,
    /// Latency constraint `T`.
    latency_bound: u32,
    /// Power constraint `P<`.
    power_bound: f64,
    /// Synthesis repetitions per side.
    reps: usize,
    /// Worker-pool width (`pchls_par::thread_count`); the kernel itself
    /// is serial.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Wall-clock seconds for the reps with tracing disabled.
    disabled_secs: f64,
    /// Wall-clock seconds for the same reps with tracing enabled.
    enabled_secs: f64,
    /// `(enabled - disabled) / disabled`, in percent: the cost of
    /// actually recording spans.
    tracing_on_overhead_pct: f64,
    /// Committed trace events per synthesize run.
    spans_per_run: f64,
    /// Microbenchmark: nanoseconds one `span!` site costs with the
    /// tracer off (a relaxed atomic load and a branch).
    disabled_span_ns: f64,
    /// The disabled-path tax on one synthesize run:
    /// `spans_per_run * disabled_span_ns / per-run seconds`, in
    /// percent. This is the number the "near-zero when off" claim
    /// rests on.
    disabled_overhead_pct: f64,
    /// Whether the traced runs reproduced the untraced designs
    /// bit for bit.
    outputs_identical: bool,
    /// Events lost to full ring buffers (must be 0 at this volume).
    dropped: u64,
    /// Per-phase totals over the enabled reps.
    phases: Vec<PhaseTotal>,
}

/// The `phases` workload: per-phase span totals for the synthesis
/// kernel plus the tracing overhead guard (BENCH_9.json).
fn phases_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    let (case, reps, spin) = if smoke {
        (random_case(30, 11, 60.0), 2, 200_000u64)
    } else {
        (random_case(200, 13, 60.0), 5, 10_000_000u64)
    };
    {
        // Warm-up (untimed) so allocator state is comparable across
        // sides.
        let compiled = engine.compile(&case.graph);
        let _ = engine
            .session(&compiled)
            .synthesize(case.constraints.clone(), opts);
    }

    let phase_names = [
        "engine.compile",
        "kernel.bootstrap",
        "fds.refit",
        "fds.palap",
        "kernel.score",
        "kernel.topk",
        "kernel.commit",
    ];

    // Each timed side compiles once and synthesizes `reps` times, so
    // the enabled trace also covers the `engine.compile` phase.
    pchls_obs::set_enabled(false);
    let start = Instant::now();
    let compiled = engine.compile(&case.graph);
    let session = engine.session(&compiled);
    let mut untraced = Vec::new();
    for _ in 0..reps {
        untraced.push(session.synthesize(case.constraints.clone(), opts));
    }
    let disabled_secs = start.elapsed().as_secs_f64();

    pchls_obs::reset();
    pchls_obs::set_enabled(true);
    let mut enabled_secs = 0.0;
    let mut events = 0usize;
    let mut dropped = 0u64;
    let mut root_secs = 0.0;
    let mut phase_secs = vec![0.0f64; phase_names.len()];
    let mut drain = |elapsed_secs: f64| {
        enabled_secs += elapsed_secs;
        // Drain between reps so the per-thread ring buffers never wrap
        // on the big case. The tracer must be off and the kernel
        // quiescent across a reset, and the drain itself stays outside
        // the timed region either way.
        pchls_obs::set_enabled(false);
        let snap = pchls_obs::snapshot();
        events += snap.events.len();
        dropped += snap.dropped;
        root_secs += snap.total_named("kernel.synthesize").as_secs_f64();
        for (total, name) in phase_secs.iter_mut().zip(phase_names) {
            *total += snap.total_named(name).as_secs_f64();
        }
        pchls_obs::reset();
        pchls_obs::set_enabled(true);
    };
    let start = Instant::now();
    let compiled = engine.compile(&case.graph);
    let session = engine.session(&compiled);
    drain(start.elapsed().as_secs_f64());
    let mut traced = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        traced.push(session.synthesize(case.constraints.clone(), opts));
        drain(start.elapsed().as_secs_f64());
    }
    pchls_obs::set_enabled(false);

    // The disabled path is one relaxed atomic load per site; measure it
    // directly rather than hoping two noisy kernel timings subtract to
    // something meaningful.
    let start = Instant::now();
    for _ in 0..spin {
        let guard = pchls_obs::span!("bench.noop");
        std::hint::black_box(&guard);
    }
    let disabled_span_ns = start.elapsed().as_secs_f64() * 1e9 / spin as f64;

    let outputs_identical = untraced.iter().zip(&traced).all(|(a, b)| match (a, b) {
        (Ok(a), Ok(b)) => a == b && a.stats == b.stats,
        (Err(_), Err(_)) => true,
        _ => false,
    });
    let phases: Vec<PhaseTotal> = phase_names
        .iter()
        .zip(&phase_secs)
        .map(|(&name, &total_secs)| PhaseTotal {
            name: name.to_owned(),
            total_secs,
            share_pct: if root_secs > 0.0 {
                total_secs / root_secs * 100.0
            } else {
                0.0
            },
        })
        .collect();

    let spans_per_run = events as f64 / reps as f64;
    let per_run_secs = disabled_secs / reps as f64;
    let disabled_overhead_pct = spans_per_run * disabled_span_ns / (per_run_secs * 1e9) * 100.0;
    let record = PhasesRecord {
        schema: "pchls-bench-v1".into(),
        workload: "phase-spans".into(),
        case: case.name.clone(),
        nodes: case.graph.len(),
        latency_bound: case.constraints.latency,
        power_bound: case.constraints.max_power(),
        reps,
        threads: pchls_par::thread_count(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        disabled_secs,
        enabled_secs,
        tracing_on_overhead_pct: (enabled_secs - disabled_secs) / disabled_secs * 100.0,
        spans_per_run,
        disabled_span_ns,
        disabled_overhead_pct,
        outputs_identical,
        dropped,
        phases,
    };
    println!(
        "{}: disabled {:.4}s | enabled {:.4}s ({:+.2}%) | {:.1} span(s)/run | off-path {:.2}ns/site = {:.4}% of a run | identical: {}",
        record.case,
        record.disabled_secs,
        record.enabled_secs,
        record.tracing_on_overhead_pct,
        record.spans_per_run,
        record.disabled_span_ns,
        record.disabled_overhead_pct,
        record.outputs_identical,
    );
    println!("{:<18} {:>12} {:>8}", "phase", "total_s", "share");
    println!("{}", "-".repeat(40));
    for p in &record.phases {
        println!(
            "{:<18} {:>12.5} {:>7.1}%",
            p.name, p.total_secs, p.share_pct
        );
    }
    assert!(
        record.outputs_identical,
        "tracing perturbed the synthesis decision trace"
    );
    assert_eq!(record.dropped, 0, "trace ring buffers overflowed");
    // Timing assertions only on hosts with real parallelism — shared
    // single-core CI boxes jitter far past any honest bound (same
    // policy as the scaling workload).
    if record.host_cores > 1 {
        assert!(
            record.disabled_overhead_pct < 1.0,
            "disabled-path tracing overhead {:.3}% >= 1%",
            record.disabled_overhead_pct
        );
    }
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_9.json", json).expect("write BENCH_9.json");
    eprintln!("wrote BENCH_9.json");
}

/// Per-edit record of the `edits` workload (`BENCH_10.json`).
#[derive(Debug, Serialize)]
struct EditRecord {
    /// Edit index (also the edit RNG seed offset).
    edit: usize,
    /// Edit flavour applied (`rewire`, `add` or `remove`).
    kind: String,
    /// Edit-cone size reported by the structural delta.
    cone: usize,
    /// Whether the incremental replay path ran (vs. the full-recompute
    /// fallback for oversized cones).
    incremental: bool,
    /// Kernel iterations gated against the recorded memo.
    gated: usize,
    /// Gated iterations that outran the recorded trust bound and
    /// re-enumerated cold.
    extensions: usize,
    /// Whether the replay abandoned the memo mid-run after the edited
    /// run's commit order diverged from the recording.
    bailed: bool,
    /// Best wall-clock seconds for a full compile of the edited graph.
    compile_secs: f64,
    /// Best wall-clock seconds for the incremental side's structural
    /// diff plus its cold compile of the edited graph.
    diff_compile_secs: f64,
    /// Best wall-clock seconds for the cold path (full compile + full
    /// kernel run on the edited graph).
    full_secs: f64,
    /// Best wall-clock seconds for the incremental path (diff + cold
    /// compile + memo-seeded replay).
    incremental_secs: f64,
    /// `full_secs / incremental_secs` — the end-to-end win.
    speedup: f64,
    /// Whether both paths produced byte-identical designs (decision
    /// traces and effort counters included).
    identical: bool,
}

/// The `edits` trajectory record (`BENCH_10.json`).
#[derive(Debug, Serialize)]
struct EditsRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Case label of the base graph.
    case: String,
    /// Node count of the base CDFG.
    nodes: usize,
    /// Latency constraint `T` (shared by the base run and every edit).
    latency_bound: u32,
    /// Power constraint `P<`.
    power_bound: f64,
    /// Edits replayed.
    edits: usize,
    /// Timing repetitions per side per edit (minimum taken).
    reps: usize,
    /// Kernel threads: always 1, the kernel is serial.
    threads: usize,
    /// Host cores.
    host_cores: usize,
    /// Seconds to record the base run (compile + recorded synthesis).
    record_secs: f64,
    /// Sum of the per-edit best cold-path seconds.
    full_secs: f64,
    /// Sum of the per-edit best incremental-path seconds.
    incremental_secs: f64,
    /// Median per-edit `full/incremental` end-to-end ratio over every
    /// edit. The replay must reproduce the cold kernel's attempt
    /// sequence bit-exactly, so its win depends on how local the edit's
    /// effect on the binding order is (up to ~6x when the memo tracks,
    /// bounded near 1x for divergent runs by the bail-out).
    median_speedup: f64,
    /// Edits whose replay followed the memo to the end of the run
    /// (incremental and not bailed).
    tracked_edits: usize,
    /// Median end-to-end ratio over tracked replays only (0 when none).
    tracked_median_speedup: f64,
    /// Best per-edit end-to-end ratio.
    max_speedup: f64,
    /// Fraction of edits the incremental replay path handled (the rest
    /// fell back to a full recompute on an oversized cone).
    incremental_share: f64,
    /// Whether every edit's two paths were byte-identical.
    outputs_identical: bool,
    /// Whether the speedup bounds (tracked median ≥ 3x, best ≥ 5x,
    /// overall median ≥ 0.9x) were asserted — multi-core hosts only;
    /// single-core CI boxes jitter past any honest bound, so they
    /// record instead (same policy as the `scaling` workload).
    speedup_asserted: bool,
    /// Per-edit breakdown.
    cases: Vec<EditRecord>,
}

/// A deterministic xorshift for the edit driver, so `BENCH_10.json` is
/// reproducible without pulling an RNG dependency into the bench.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Applies one random structural edit (rewire an operand, add an op, or
/// remove an unconsumed node) and returns the edited graph plus the
/// flavour applied.
fn random_edit(graph: &Cdfg, seed: u64) -> (Cdfg, &'static str) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut edit = pchls_cdfg::GraphEdit::new(graph);
    let n = graph.len() as u64;
    let producers: Vec<pchls_cdfg::NodeId> = graph
        .node_ids()
        .filter(|&id| graph.node(id).kind().produces_value())
        .collect();
    let pick = |state: &mut u64| producers[(xorshift(state) % producers.len() as u64) as usize];
    loop {
        let applied: Option<&'static str> = match xorshift(&mut state) % 3 {
            0 => {
                let id = pchls_cdfg::NodeId::new((xorshift(&mut state) % n) as u32);
                let ports = graph.operands(id).len();
                (ports > 0 && {
                    let port = (xorshift(&mut state) % ports as u64) as usize;
                    let src = pick(&mut state);
                    edit.rewire_edge(id, port, src).is_ok()
                })
                .then_some("rewire")
            }
            1 => {
                let kind = if xorshift(&mut state).is_multiple_of(2) {
                    pchls_cdfg::OpKind::Add
                } else {
                    pchls_cdfg::OpKind::Mul
                };
                let (a, b) = (pick(&mut state), pick(&mut state));
                edit.add_op(kind, &[a, b]).is_ok().then_some("add")
            }
            _ => {
                let start = xorshift(&mut state) % n;
                (0..n)
                    .any(|off| {
                        let id = pchls_cdfg::NodeId::new(((start + off) % n) as u32);
                        edit.remove_op(id).is_ok()
                    })
                    .then_some("remove")
            }
        };
        if let Some(kind) = applied {
            return (edit.finish().expect("validated edits re-finish"), kind);
        }
    }
}

/// The `edits` workload: random single-op edit replays on the rand200
/// case, incremental re-synthesis vs. full recompile, byte-diffed
/// (BENCH_10.json).
fn edits_workload(smoke: bool, engine: &Engine, opts: &SynthesisOptions) {
    let (case, edits, reps) = if smoke {
        (random_case(30, 11, 60.0), 4, 1)
    } else {
        (random_case(200, 13, 60.0), 24, 3)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Record the base run once; every edit replays against this memo.
    let start = Instant::now();
    let compiled = engine.compile(&case.graph);
    let (_, memo) = engine
        .session(&compiled)
        .synthesize_recorded(case.constraints.clone(), opts)
        .expect("the scale cases are feasible");
    let record_secs = start.elapsed().as_secs_f64();

    // Warm-up (untimed) so allocator state is comparable across sides.
    {
        let (edited, _) = random_edit(&case.graph, 999);
        let _ = engine.try_compile(&edited).map(|c| {
            engine
                .session(&c)
                .synthesize(case.constraints.clone(), opts)
        });
        let delta = diff(&case.graph, &edited);
        let _ = engine.try_compile(&edited).map(|c| {
            engine
                .session(&c)
                .resynthesize(&memo, &delta)
                .map(|r| r.incremental)
        });
    }

    println!(
        "{:<4} {:>7} {:>5} {:>5} {:>6} {:>4} {:>5} | {:>9} {:>9} | {:>9} {:>9} {:>7} {:>5}",
        "edit",
        "kind",
        "cone",
        "inc",
        "gated",
        "ext",
        "bail",
        "comp_s",
        "dcomp_s",
        "full_s",
        "inc_s",
        "e2e",
        "ident"
    );
    println!("{}", "-".repeat(101));
    let mut records = Vec::new();
    let mut outputs_identical = true;
    for e in 0..edits {
        let (edited, kind) = random_edit(&case.graph, 1 + e as u64);

        // Cold side, stage-timed: a full compile of the edited graph,
        // then a full kernel run.
        let mut compile_secs = f64::INFINITY;
        let mut synth_secs = f64::INFINITY;
        let mut cold = None;
        for _ in 0..reps {
            let start = Instant::now();
            let c = engine.try_compile(&edited);
            compile_secs = compile_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let outcome = c.and_then(|c| {
                engine
                    .session(&c)
                    .synthesize(case.constraints.clone(), opts)
            });
            synth_secs = synth_secs.min(start.elapsed().as_secs_f64());
            cold = Some(outcome);
        }

        // Incremental side: diff + cold compile, then memo-seeded
        // replay.
        let mut diff_compile_secs = f64::INFINITY;
        let mut resynth_secs = f64::INFINITY;
        let mut replayed = None;
        for _ in 0..reps {
            let start = Instant::now();
            let delta = diff(&case.graph, &edited);
            let c = engine.try_compile(&edited);
            diff_compile_secs = diff_compile_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let outcome = c.and_then(|c| engine.session(&c).resynthesize(&memo, &delta));
            resynth_secs = resynth_secs.min(start.elapsed().as_secs_f64());
            replayed = Some(outcome);
        }

        let cold = cold.expect("reps >= 1");
        let replayed = replayed.expect("reps >= 1");
        let (cone, incremental, gated, extensions, bailed) = replayed
            .as_ref()
            .map(|r| {
                (
                    r.cone_size,
                    r.incremental,
                    r.gated_iterations,
                    r.extensions,
                    r.bailed,
                )
            })
            .unwrap_or((0, false, 0, 0, false));
        let identical = match (&cold, &replayed) {
            (Ok(a), Ok(r)) => *a == r.design && a.stats == r.design.stats,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        outputs_identical &= identical;
        let full_secs = compile_secs + synth_secs;
        let incremental_secs = diff_compile_secs + resynth_secs;
        let speedup = full_secs / incremental_secs;
        println!(
            "{:<4} {:>7} {:>5} {:>5} {:>6} {:>4} {:>5} | {:>9.4} {:>9.4} | {:>9.4} {:>9.4} \
             {:>6.2}x {:>5}",
            e,
            kind,
            cone,
            incremental,
            gated,
            extensions,
            bailed,
            compile_secs,
            diff_compile_secs,
            full_secs,
            incremental_secs,
            speedup,
            identical,
        );
        records.push(EditRecord {
            edit: e,
            kind: kind.to_owned(),
            cone,
            incremental,
            gated,
            extensions,
            bailed,
            compile_secs,
            diff_compile_secs,
            full_secs,
            incremental_secs,
            speedup,
            identical,
        });
    }

    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs[xs.len() / 2]
    };
    let median_speedup = median(records.iter().map(|r| r.speedup).collect());
    // "Tracked" replays followed the memo to the end of the run; bailed
    // ones abandoned it mid-run after the commit order diverged.
    let tracked: Vec<f64> = records
        .iter()
        .filter(|r| r.incremental && !r.bailed)
        .map(|r| r.speedup)
        .collect();
    let tracked_edits = tracked.len();
    let tracked_median_speedup = if tracked.is_empty() {
        0.0
    } else {
        median(tracked)
    };
    let max_speedup = records.iter().map(|r| r.speedup).fold(0.0, f64::max);
    let incremental_share =
        records.iter().filter(|r| r.incremental).count() as f64 / records.len() as f64;
    let speedup_asserted = !smoke && host_cores > 1;
    let record = EditsRecord {
        schema: "pchls-bench-v1".into(),
        workload: "edit-replay".into(),
        case: case.name.clone(),
        nodes: case.graph.len(),
        latency_bound: case.constraints.latency,
        power_bound: case.constraints.max_power(),
        edits,
        reps,
        // Both sides run the serial kernel; BENCH_6 owns the
        // thread-scaling story.
        threads: 1,
        host_cores,
        record_secs,
        full_secs: records.iter().map(|r| r.full_secs).sum(),
        incremental_secs: records.iter().map(|r| r.incremental_secs).sum(),
        median_speedup,
        tracked_edits,
        tracked_median_speedup,
        max_speedup,
        incremental_share,
        outputs_identical,
        speedup_asserted,
        cases: records,
    };
    println!(
        "\n{}: {} edits | full {:.3}s | incremental {:.3}s | median speedup {:.2}x | tracked \
         {}/{} median {:.2}x | best {:.2}x | incremental share {:.0}% | identical: {}",
        record.case,
        record.edits,
        record.full_secs,
        record.incremental_secs,
        record.median_speedup,
        record.tracked_edits,
        record.edits,
        record.tracked_median_speedup,
        record.max_speedup,
        record.incremental_share * 100.0,
        record.outputs_identical,
    );
    // The identity contract holds unconditionally; the speedup bounds
    // are only asserted where the measurement is honest (multi-core
    // hosts, full-size case — single-core CI boxes jitter past any
    // honest bound, so they record instead; same policy as `scaling`).
    assert!(
        record.outputs_identical,
        "incremental re-synthesis diverged from the cold path"
    );
    assert!(
        record.incremental_share > 0.0,
        "no edit exercised the incremental path"
    );
    if record.speedup_asserted {
        assert!(
            record.tracked_edits > 0,
            "no replay tracked its memo to the end of the run"
        );
        assert!(
            record.tracked_median_speedup >= 3.0,
            "tracked-replay median speedup {:.2}x below the 3x bound",
            record.tracked_median_speedup
        );
        assert!(
            record.max_speedup >= 5.0,
            "best replay speedup {:.2}x below the 5x bound",
            record.max_speedup
        );
        assert!(
            record.median_speedup >= 0.9,
            "incremental path slower than cold at the median ({:.2}x): the bail-out failed to \
             bound divergent replays",
            record.median_speedup
        );
    }
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_10.json", json).expect("write BENCH_10.json");
    eprintln!("wrote BENCH_10.json");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Positional names select a subset of workloads (all by default):
    // `scale store` regenerates only BENCH_7.json.
    let only: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let known = [
        "kernel",
        "amortized",
        "service",
        "envelope",
        "scaling",
        "store",
        "overload",
        "phases",
        "edits",
    ];
    if let Some(bad) = only.iter().find(|w| !known.contains(w)) {
        eprintln!("unknown workload `{bad}` (expected one of {known:?})");
        std::process::exit(2);
    }
    let want = |name: &str| only.is_empty() || only.contains(&name);
    let engine = Engine::new(paper_library());
    let opts = SynthesisOptions::default();
    if want("kernel") {
        kernel_workload(smoke, &engine, &opts);
    }
    if want("amortized") {
        amortized_workload(smoke, &opts);
    }
    if want("service") {
        service_workload(smoke, &opts);
    }
    if want("envelope") {
        envelope_workload(smoke, &engine, &opts);
    }
    if want("scaling") {
        scaling_workload(smoke, &engine, &opts);
    }
    if want("store") {
        store_workload(smoke, &engine, &opts);
    }
    if want("overload") {
        overload_workload(smoke, &opts);
    }
    if want("phases") {
        phases_workload(smoke, &engine, &opts);
    }
    if want("edits") {
        edits_workload(smoke, &engine, &opts);
    }
}
