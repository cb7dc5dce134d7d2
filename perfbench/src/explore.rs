//! `explore`: one closed-loop designer at the library.
//!
//! Phase (a) synthesizes single designs one at a time — `parse_cdfg` →
//! `Engine::compile` → `Session::synthesize` — over the paper graphs,
//! the larger named kernels and `random_dag` draws of 60–300
//! operations, under constant and stepwise budgets, with the kernel
//! serial. Every fourth design is then synthesized again with the
//! in-kernel parallel scoring at `PCHLS_THREADS` threads, the only place
//! that fan-out runs. Phase (b) runs Figure-2-style `Session::sweep`
//! power grids (and stepwise budget-scale grids) over precompiled
//! graphs: the sweep fan-out, with the kernel serial inside it.
//!
//! Both phases are CPU-bound, so they are timed by CPU time at the
//! reference speed (see `speed.rs`). The end-to-end latencies time the
//! serial kernel. The in-kernel fan-out spawns threads on every kernel
//! iteration, and on a shared 2-core host its time swings by 2–3× from
//! run to run, far past any usable bound; it is reported per layer
//! instead (`par.*`).

use std::time::{Duration, Instant};

use pchls_cdfg::{graph_fingerprint, parse_cdfg, Cdfg};
use pchls_core::{
    CompiledGraph, Engine, SweepPoint, SweepSpec, SynthesisConstraints, SynthesisOptions,
};
use pchls_fulib::paper_library;

use crate::check::check_design;
use crate::inputs::{
    constant_budget, latency_for, named_graphs, random_graph, stepwise_budget, Point, Rng,
};
use crate::speed::{process_cpu, thread_cpu, Speed};
use crate::util::{cpu_util, geomean, median, ms, quantile, timed, us};
use crate::{put, put_kernel_counts, scaled, Ctx, Outcome, ReplayCounters};

/// Random graphs of phase (a) per 10 s of `--seconds`. Their sizes are
/// spaced evenly over 60–300 operations (only their structure is
/// drawn), so the median and tail design sizes are the same for every
/// seed.
const DESIGNS_PER_10S: usize = 16;
const MIN_OPS: usize = 60;
const MAX_OPS: usize = 300;

/// Random sweep graphs per 10 s of `--seconds`, sizes spaced evenly
/// over 40–80 operations.
const SWEEPS_PER_10S: usize = 48;

/// Every this many designs of phase (a) also run with the in-kernel
/// parallel scoring.
const PARALLEL_EVERY: usize = 4;

/// Phase (a) runs its whole set of designs this many times over, and
/// each design counts the median of its rounds' scaled CPU times, so a
/// probe that misjudged the host's speed moves one round, not the
/// design.
const ROUNDS: usize = 3;

/// Points of each constant power grid, and of each stepwise scale grid.
/// A sweep's two fan-out threads then record about 2800 trace events
/// each (8 points of 80 operations), inside the tracer's ring of 4096,
/// so the traced run can drain between sweeps and lose none.
const POWER_STEPS: usize = 16;
const SCALE_STEPS: usize = 16;

/// `count` sizes spaced evenly over `lo..=hi`.
fn spaced(count: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |i| lo + (hi - lo) * i / (count - 1).max(1))
}

/// Everything phase (a) and (b) consume, built in set-up.
struct Inputs {
    engine: Engine,
    /// Phase (a)'s designs.
    designs: Vec<Point>,
    /// Phase (b)'s graphs with their grids.
    sweeps: Vec<(CompiledGraph, Vec<SweepSpec>)>,
}

fn set_up(seed: u64, seconds: u64) -> Inputs {
    let engine = Engine::new(paper_library());
    let mut rng = Rng::stream(seed, "explore");

    // Phase (a): the named graphs, then the random ones; budgets
    // alternate between constant and stepwise.
    let mut graphs: Vec<Cdfg> = named_graphs();
    for ops in spaced(scaled(DESIGNS_PER_10S, seconds), MIN_OPS, MAX_OPS) {
        graphs.push(random_graph(ops, rng.next_u64()));
    }
    let mut designs = Vec::with_capacity(graphs.len());
    for (i, graph) in graphs.into_iter().enumerate() {
        let compiled = engine.compile(&graph);
        let latency = latency_for(&compiled);
        let budget = if (i + i / 6) % 2 == 0 {
            constant_budget(&compiled, 0.5)
        } else {
            stepwise_budget(&compiled, latency)
        };
        designs.push(Point::new(
            graph,
            SynthesisConstraints::new(latency, budget),
        ));
    }
    rng.shuffle(&mut designs);

    // Phase (b): compiled once here, swept in the timed window.
    let mut sweep_graphs = named_graphs();
    for ops in spaced(scaled(SWEEPS_PER_10S, seconds), 40, 80) {
        sweep_graphs.push(random_graph(ops, rng.next_u64()));
    }
    let mut sweeps = Vec::with_capacity(sweep_graphs.len());
    for graph in &sweep_graphs {
        let compiled = engine.compile(graph);
        let latency = latency_for(&compiled);
        let grid = engine.session(&compiled).auto_power_grid(POWER_STEPS);
        let scales = (0..SCALE_STEPS).map(|i| 0.5 + 0.05 * i as f64).collect();
        let specs = vec![
            SweepSpec::power(latency, grid),
            SweepSpec::budget_scale(latency, stepwise_budget(&compiled, latency), scales),
        ];
        sweeps.push((compiled, specs));
    }
    Inputs {
        engine,
        designs,
        sweeps,
    }
}

/// One timed design: parse, compile, synthesize.
struct Design {
    graph: Cdfg,
    outcome: Result<pchls_core::SynthesizedDesign, String>,
    parse: Duration,
    compile: Duration,
    synthesize: Duration,
}

/// Parses, compiles and synthesizes one design, with the kernel's
/// scoring fanned out over at most `threads` threads.
fn synthesize_one(engine: &Engine, point: &Point, threads: usize) -> Design {
    let options = SynthesisOptions::default();
    let _design_span = pchls_obs::span!("bench.design");
    let (graph, parse) = timed(|| {
        let _s = pchls_obs::span!("bench.parse");
        parse_cdfg(&point.text).expect("generated graph text parses")
    });
    let (compiled, compile) = timed(|| {
        let _s = pchls_obs::span!("bench.compile");
        engine.compile(&graph)
    });
    let (outcome, synthesize) = timed(|| {
        let _s = pchls_obs::span!("bench.synthesize");
        pchls_par::with_thread_count(threads, || {
            engine
                .session(&compiled)
                .synthesize(point.constraints.clone(), &options)
                .map_err(|e| e.to_string())
        })
    });
    Design {
        graph,
        outcome,
        parse,
        compile,
        synthesize,
    }
}

/// The monotone-envelope property of a sweep: loosening the budget
/// never makes the best design larger, nor a feasible point infeasible.
fn envelope_holds(points: &[SweepPoint]) -> bool {
    points.windows(2).all(|w| match (w[0].area, w[1].area) {
        (Some(a), Some(b)) => b <= a,
        (Some(_), None) => false,
        _ => true,
    })
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let (inputs, setup) = ctx.set_up(|| set_up(ctx.seed, ctx.seconds));
    let mut out = Outcome {
        setup,
        ..Outcome::default()
    };
    let engine = &inputs.engine;
    let threads = pchls_par::thread_count();
    let replay = ReplayCounters::read();
    let mut speed = Speed::new();

    // Phase (a): single designs, one at a time, the kernel serial, in
    // ROUNDS rounds, each timed by this thread's CPU time with a speed
    // probe after it; then every PARALLEL_EVERY-th design again with the
    // in-kernel fan-out. The first round's designs are kept, and every
    // later round must reproduce them.
    ctx.record(true);
    let points: Vec<&Point> = inputs.designs.iter().collect();
    let mut designs: Vec<Design> = Vec::with_capacity(points.len());
    let mut rounds: Vec<Vec<(Instant, Duration)>> = points.iter().map(|_| Vec::new()).collect();
    let wall0 = Instant::now();
    speed.probe();
    for round in 0..ROUNDS {
        for (i, point) in points.iter().enumerate() {
            let (at, cpu0) = (Instant::now(), thread_cpu());
            let design = synthesize_one(engine, point, 1);
            rounds[i].push((at, thread_cpu() - cpu0));
            speed.probe();
            ctx.quiesce();
            if round == 0 {
                designs.push(design);
            } else if design.outcome != designs[i].outcome {
                out.fail(format!("{}: rounds disagree", point.graph.name()));
            }
        }
    }
    let synth_wall = wall0.elapsed();
    let mut fanned = Vec::new();
    let (cpu0, wall0) = (process_cpu(), Instant::now());
    for i in (0..points.len()).step_by(PARALLEL_EVERY) {
        fanned.push((i, synthesize_one(engine, points[i], threads)));
        ctx.quiesce();
    }
    let synth_util = cpu_util(process_cpu() - cpu0, wall0.elapsed(), threads);

    // Phase (b): sweeps over precompiled graphs, once each, each timed by
    // the CPU time of all the process's threads with a speed probe after
    // it. What moves the throughput from seed to seed is which grid
    // points turn out cheap, so it sweeps many graphs instead of
    // repeating them. The traced run's drains between calls are not
    // timed.
    let options = SynthesisOptions::default();
    let mut swept: Vec<Vec<SweepPoint>> = Vec::new();
    let mut sweep_ms = 0.0;
    let (cpu0, wall0) = (process_cpu(), Instant::now());
    for (compiled, specs) in &inputs.sweeps {
        let session = engine.session(compiled);
        for spec in specs {
            let (at, cpu) = (Instant::now(), process_cpu());
            let points = {
                let _s = pchls_obs::span!("bench.sweep");
                session.sweep(spec, &options).into_points()
            };
            let cpu = process_cpu() - cpu;
            speed.probe();
            sweep_ms += speed.scaled_ms(at, cpu);
            ctx.quiesce();
            swept.push(points);
        }
    }
    let sweep_wall = wall0.elapsed();
    ctx.record(false);
    let sweep_util = cpu_util(process_cpu() - cpu0, sweep_wall, threads);
    let sweep_points: usize = swept.iter().map(Vec::len).sum();
    eprintln!(
        "explore: {} designs in {:.2} s, {sweep_points} sweep points in {:.2} s, \
         median speed probe {:.4} ms (reference {})",
        designs.len(),
        synth_wall.as_secs_f64(),
        sweep_wall.as_secs_f64(),
        speed.median_ms(),
        crate::speed::REFERENCE_MS,
    );

    // The output check, outside both timed phases. The fanned-out runs
    // must reproduce their serial designs exactly.
    for (i, design) in &fanned {
        if design.outcome != designs[*i].outcome {
            let name = points[*i].graph.name();
            out.fail(format!("{name}: the in-kernel fan-out changed the design"));
        }
    }
    let mut rng = Rng::stream(ctx.seed, "explore-check");
    let mut areas = Vec::new();
    for (design, point) in designs.iter().zip(&points) {
        out.attempted += 1;
        match &design.outcome {
            Ok(d) => {
                if let Err(e) = check_design(&design.graph, d, engine, &mut rng) {
                    out.fail(e);
                }
                areas.push(d.area as f64);
            }
            Err(e) => out.fail(format!(
                "{} T={}: {e}",
                point.graph.name(),
                point.constraints.latency
            )),
        }
    }
    // The quality figure also covers every feasible sweep point, so it
    // rests on some 2000 designs rather than one per graph.
    for points in &swept {
        out.attempted += points.len() as u64;
        areas.extend(points.iter().filter_map(|p| p.area).map(|a| a as f64));
        if !envelope_holds(points) {
            out.fail(format!(
                "sweep of {} breaks the monotone envelope",
                points[0].benchmark
            ));
        }
    }

    // A design's latency is the median of its rounds at the reference
    // speed; the sweep throughput counts the points the reference host's
    // `threads` cores, kept busy, would complete per second.
    let latencies: Vec<f64> = rounds
        .iter()
        .map(|r| {
            median(
                &r.iter()
                    .map(|&(at, cpu)| speed.scaled_ms(at, cpu))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let e = &mut out.e2e;
    put(e, "latency_p50_ms", median(&latencies));
    put(e, "latency_tail_ms", quantile(&latencies, 0.9));
    put(
        e,
        "throughput_per_s",
        sweep_points as f64 / (sweep_ms / 1e3 / threads as f64),
    );
    put(e, "area_geomean", geomean(&areas));

    let l = &mut out.layers;
    let med = |f: &dyn Fn(&Design) -> f64| median(&designs.iter().map(f).collect::<Vec<_>>());
    put(l, "cdfg.parse_us", med(&|d| us(d.parse)));
    let fingerprints: Vec<f64> = designs
        .iter()
        .map(|d| us(timed(|| graph_fingerprint(&d.graph)).1))
        .collect();
    put(l, "cdfg.fingerprint_us", median(&fingerprints));
    put(l, "core.compile_ms", med(&|d| ms(d.compile)));
    put(l, "core.compiles", designs.len() as f64);
    put(l, "core.synthesize_ms", med(&|d| ms(d.synthesize)));
    let feasible = designs.iter().filter_map(|d| d.outcome.as_ref().ok());
    put_kernel_counts(l, feasible.map(|d| &d.stats));
    replay.put_deltas(l);
    let fanned_ms: Vec<f64> = fanned.iter().map(|(_, d)| ms(d.synthesize)).collect();
    let speedups: Vec<f64> = fanned
        .iter()
        .map(|(i, d)| designs[*i].synthesize.as_secs_f64() / d.synthesize.as_secs_f64())
        .collect();
    put(l, "par.synth_ms", median(&fanned_ms));
    put(l, "par.kernel_speedup", median(&speedups));
    put(l, "par.cpu_util_synth", synth_util);
    put(l, "par.cpu_util_sweep", sweep_util);
    out
}
