//! `edit-loop`: one designer editing a graph and waiting for each
//! answer.
//!
//! A closed-loop TCP client submits seeded chains of single-op
//! `GraphEdit`s of rand120-class graphs (110–130 operations) as
//! `graph_text`, under fixed constraints and no deadline (a deadline
//! disables patching). It is the workload where `diff`, delta compile
//! and replay — serve's near-miss patch path — carry the load, measured
//! through the wire so it keeps measuring the user's edit path whatever
//! mechanism answers it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pchls_cdfg::{diff, Cdfg};
use pchls_core::{Engine, SynthesisConstraints};
use pchls_fulib::paper_library;
use pchls_serve::Service;

use crate::check::{reference, Reference};
use crate::client::{Caller, Reply};
use crate::inputs::{constant_budget, latency_for, random_edit, random_graph, Point, Rng};
use crate::serve_mix::{
    area_geomean, await_appends, put_reference_layers, put_service_layers, request, service_config,
    Server, SHARDS, WORKERS,
};
use crate::speed::{process_cpu, Speed};
use crate::tracing::RequestTimes;
use crate::util::{median, ms, quantile, ratio, timed, us};
use crate::{put, put_lane_layers, scaled, Ctx, Outcome, ReplayCounters};

/// Independent edit chains per run, each on its own base graph, with
/// sizes spaced evenly over 110–130 operations (rand120-class); only
/// their structure is drawn. What an edit costs depends mostly on its
/// base graph, so the figures rest on many short chains: over five
/// seeds, 8 chains of 60 edits spread the p50 by a third of its median.
const CHAINS: usize = 96;
const MIN_OPS: usize = 110;
const MAX_OPS: usize = 130;

/// How long the traced run waits for an edit's store append before it
/// drains the tracer anyway.
const SETTLE_TIMEOUT: Duration = Duration::from_millis(200);

/// Edits per chain per 10 s of `--seconds`.
const EDITS_PER_10S: usize = 1;

/// An untraced run makes its timed loop this many times, the later ones
/// each on a fresh service with a fresh store, and each edit counts the
/// median of its rounds. Other tenants slow the host for seconds at a
/// time in a way the speed probe does not see: timed once, one seed read
/// a p50 of 23.2, 23.6, 27.6, 29.0 and 31.7 ms in five runs.
const ROUNDS: usize = 3;

/// One chain: the base graph and its successive edits, all under the
/// base graph's constraints.
struct Chain {
    base: Point,
    edits: Vec<Point>,
}

fn chains(seed: u64, seconds: u64) -> Vec<Chain> {
    let engine = Engine::new(paper_library());
    let mut rng = Rng::stream(seed, "edit-loop");
    let edits = scaled(EDITS_PER_10S, seconds);
    (0..CHAINS)
        .map(|i| {
            let ops = MIN_OPS + (MAX_OPS - MIN_OPS) * i / (CHAINS - 1);
            let graph = random_graph(ops, rng.next_u64());
            let compiled = engine.compile(&graph);
            let constraints =
                SynthesisConstraints::new(latency_for(&compiled), constant_budget(&compiled, 0.5));
            let mut prev: Cdfg = graph.clone();
            let edits = (0..edits)
                .map(|_| {
                    prev = random_edit(&prev, &mut rng);
                    Point::new(prev.clone(), constraints.clone())
                })
                .collect();
            Chain {
                base: Point::new(graph, constraints),
                edits,
            }
        })
        .collect()
}

struct Setup {
    chains: Vec<Chain>,
    server: Server,
    caller: Caller,
}

/// Builds the chains, starts the service on a fresh store directory (so
/// every edit it synthesizes is appended, as a deployed service does) and
/// submits every base graph, so each chain starts from a design the
/// service has just synthesized.
fn set_up(ctx: &Ctx<'_>, rep: &AtomicUsize) -> std::io::Result<Setup> {
    let chains = chains(ctx.seed, ctx.seconds);
    let store_dir = ctx.scratch.join(format!(
        "edit-store-{}",
        rep.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = Server::start(service_config(Some(&store_dir)))?;
    let mut caller = Caller::connect(server.addr)?;
    for (i, chain) in chains.iter().enumerate() {
        caller.call(
            &request(u64::MAX - i as u64, &chain.base, Duration::ZERO),
            false,
        )?;
    }
    Ok(Setup {
        chains,
        server,
        caller,
    })
}

/// One pass of the timed loop over every chain on one service: submit an
/// edit, wait for its design, repeat. Only this edit is in flight, so the
/// CPU time the whole process spends between submit and reply is the
/// edit's own; a speed probe follows each edit (see `speed.rs`). Returns
/// each edit's reply and when it started with its CPU time; a broken
/// connection fails the edit and ends the pass.
fn edit_round(
    ctx: &Ctx<'_>,
    chains: &[Chain],
    caller: &mut Caller,
    service: &Service,
    speed: &mut Speed,
    out: &mut Outcome,
) -> (Vec<Reply>, Vec<(Instant, Duration)>) {
    let traced = ctx.traced();
    let mut replies = Vec::new();
    let mut costs = Vec::new();
    let mut appended = service.stats().store_appends;
    let points = chains.iter().flat_map(|c| &c.edits);
    for (id, point) in (0u64..).zip(points) {
        out.attempted += 1;
        let (at, cpu0) = (Instant::now(), process_cpu());
        let reply = caller.call(&request(id, point, Duration::ZERO), traced);
        costs.push((at, process_cpu() - cpu0));
        speed.probe();
        match reply {
            // The service records its span before it replies; after the
            // reply only the store's write-behind append runs, so once the
            // edit's record is appended this is quiescent. An edit
            // answered from the result tier appends nothing, and the wait
            // gives up after SETTLE_TIMEOUT.
            Ok(reply) => {
                if traced {
                    appended += 1;
                    await_appends(service, appended, SETTLE_TIMEOUT);
                }
                ctx.quiesce();
                replies.push(reply);
            }
            Err(e) => {
                out.fail(format!("edit {id}: {e}"));
                break;
            }
        }
    }
    (replies, costs)
}

/// Makes every thread started from now on allocate from the process's
/// main malloc arena. Each round starts a fresh service, whose threads
/// otherwise took new arenas or reused old ones as timing fell, and the
/// peak RSS swung between 89 and 125 MB from run to run; with one edit in
/// flight the threads never allocate at once, so sharing costs nothing.
fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator tunable; glibc accepts it
    // at any time and it affects arenas created afterwards.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    one_malloc_arena();
    let rep = AtomicUsize::new(0);
    let (setup, setup_times) = ctx.set_up(|| set_up(ctx, &rep));
    let mut out = Outcome {
        setup: setup_times,
        service: Some((WORKERS, SHARDS)),
        ..Outcome::default()
    };
    let Setup {
        chains,
        server,
        mut caller,
    } = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up failed: {e}"));
            return out;
        }
    };
    let service = std::sync::Arc::clone(&server.service);
    let stats0 = service.stats();
    let replay = ReplayCounters::read();

    // The first round runs on the set-up's service, traced in a traced
    // run, and gives the replies checked and the layer metrics. An
    // untraced run then repeats the round on fresh services.
    let mut speed = Speed::new();
    speed.probe();
    ctx.record(true);
    let (replies, first_costs) =
        edit_round(ctx, &chains, &mut caller, &service, &mut speed, &mut out);
    ctx.record(false);
    let stats1 = service.stats();
    drop((caller, server));
    let mut costs = vec![first_costs];
    for _ in 1..if ctx.traced() { 1 } else { ROUNDS } {
        let fresh = match set_up(ctx, &rep) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("set-up of a later round failed: {e}"));
                break;
            }
        };
        let Setup {
            server, mut caller, ..
        } = fresh;
        let (again, round_costs) = edit_round(
            ctx,
            &chains,
            &mut caller,
            &server.service,
            &mut speed,
            &mut out,
        );
        for (first, later) in replies.iter().zip(&again) {
            if first.response.point != later.response.point {
                out.fail(format!("edit {}: rounds disagree", first.id));
            }
        }
        costs.push(round_costs);
    }
    let points: Vec<&Point> = chains.iter().flat_map(|c| &c.edits).collect();

    // The output check: each answer against a direct cold synthesis of
    // the edited graph.
    let engine = Engine::new(paper_library());
    let mut rng = Rng::stream(ctx.seed, "edit-loop-check");
    let mut refs = Vec::with_capacity(replies.len());
    for (point, reply) in points.iter().zip(&replies) {
        let rf = match reference(&engine, point)
            .and_then(|rf| rf.check(&engine, &mut rng).map(|()| rf))
        {
            Ok(rf) => rf,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if !(reply.response.ok && reply.response.point.as_ref() == Some(&rf.point)) {
            out.fail(format!(
                "edit {}: served {:?} / {:?}, direct synthesis gives {:?}",
                reply.id, reply.response.point, reply.response.error, rf.point
            ));
        }
        refs.push(rf);
    }
    let refs: Vec<&Reference> = refs.iter().collect();
    let mut diffs = Vec::new();
    for chain in &chains {
        let mut prev = &chain.base.graph;
        for point in &chain.edits {
            diffs.push(us(timed(|| diff(prev, &point.graph)).1));
            prev = &point.graph;
        }
    }

    // Each edit counts the median of its rounds' CPU times at the
    // reference speed.
    let edit_ms: Vec<f64> = (0..costs[0].len())
        .map(|k| {
            let rounds: Vec<f64> = costs
                .iter()
                .filter_map(|round| round.get(k))
                .map(|&(at, cpu)| speed.scaled_ms(at, cpu))
                .collect();
            median(&rounds)
        })
        .collect();
    let latencies: Vec<f64> = replies.iter().map(|r| ms(r.latency)).collect();
    let e = &mut out.e2e;
    put(e, "latency_p50_ms", median(&edit_ms));
    put(e, "latency_tail_ms", quantile(&edit_ms, 0.9));
    put(
        e,
        "throughput_per_s",
        edit_ms.len() as f64 / (edit_ms.iter().sum::<f64>() / 1e3),
    );
    put(e, "area_geomean", area_geomean(&refs));

    let l = &mut out.layers;
    put(l, "serve.nearmiss_p50_ms", median(&latencies));
    put(l, "serve.nearmiss_p99_ms", quantile(&latencies, 0.99));
    put_service_layers(l, &stats0, &stats1);
    put(
        l,
        "serve.patch_ratio",
        ratio(
            (stats1.patched - stats0.patched) as f64,
            replies.len() as f64,
        ),
    );
    put_reference_layers(l, &refs, &diffs);
    replay.put_deltas(l);
    if let Some(c) = ctx.collector {
        let requests = c.requests();
        put_lane_layers(l, &requests);
        let overhead: Vec<f64> = requests.iter().map(RequestTimes::overhead_us).collect();
        if !overhead.is_empty() {
            put(l, "net.overhead_us", median(&overhead));
        }
    }
    out
}
