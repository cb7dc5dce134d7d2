//! Regression dashboard: every benchmark through the paper algorithm,
//! the refined variant and the portfolio at standard constraints, with
//! the extended (registers + muxes) area breakdown — followed by the
//! Figure 2 regeneration perf measurement (serial vs. parallel), which
//! is dumped to `BENCH_1.json` as the tracked performance trajectory.

use std::time::Instant;

use serde::Serialize;

use pchls_bench::{figure2_curves, figure2_power_grid, run_curve_serial, run_figure2};
use pchls_cdfg::benchmarks;
use pchls_core::{area_breakdown, AreaModel, Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::paper_library;

/// The perf-trajectory record (`BENCH_*.json`): one file per PR, so the
/// wall-clock history of the Figure 2 regeneration is tracked in-repo.
#[derive(Debug, Serialize)]
struct BenchRecord {
    /// Trajectory schema marker.
    schema: String,
    /// What is being timed.
    workload: String,
    /// Synthesis points per full regeneration (curves × grid).
    points: usize,
    /// Worker threads the parallel run used.
    threads: usize,
    /// Host cores (`available_parallelism`); speedup is bounded by this.
    host_cores: usize,
    /// Wall-clock seconds for the curve-at-a-time serial reference.
    serial_secs: f64,
    /// Wall-clock seconds for the `sweep_many` whole-figure fan-out.
    parallel_secs: f64,
    /// `serial_secs / parallel_secs`.
    speedup: f64,
    /// Whether parallel output was byte-identical to serial.
    outputs_identical: bool,
}

fn figure2_perf() -> BenchRecord {
    let lib = paper_library();
    let curves = figure2_curves();
    let points = curves.len() * figure2_power_grid().len();

    let start = Instant::now();
    let serial: Vec<_> = curves
        .iter()
        .map(|(g, t)| run_curve_serial(g, &lib, *t))
        .collect();
    let serial_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let parallel = run_figure2(&lib);
    let parallel_secs = start.elapsed().as_secs_f64();

    BenchRecord {
        schema: "pchls-bench-v1".into(),
        workload: "figure2-regeneration".into(),
        points,
        threads: pchls_par::thread_count(),
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serial_secs,
        parallel_secs,
        speedup: serial_secs / parallel_secs,
        outputs_identical: serial == parallel,
    }
}

fn main() {
    let engine = Engine::new(paper_library());
    let opts = SynthesisOptions::default();
    println!(
        "{:<10} {:>4} {:>6} | {:>6} {:>7} {:>7} | {:>5} {:>5} {:>6}",
        "benchmark", "T", "P<", "paper", "refined", "portf.", "regs", "muxes", "full"
    );
    println!("{}", "-".repeat(76));
    for g in benchmarks::all() {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        // Standard constraints: 1.5x the fastest critical path (the
        // compiled graph's minimum latency), a power budget of 40.
        let t = compiled.min_latency() * 3 / 2;
        let c = SynthesisConstraints::new(t, 40.0);
        let paper = session.synthesize(c.clone(), &opts);
        let refined = session.synthesize_refined(c.clone(), &opts);
        let portfolio = session.synthesize_portfolio(c, &opts);
        let fmt = |r: &Result<pchls_core::SynthesizedDesign, _>| match r {
            Ok(d) => d.area.to_string(),
            Err(_) => "-".into(),
        };
        let (regs, muxes, full) = match &portfolio {
            Ok(d) => {
                let b = area_breakdown(d, &g, AreaModel::with_storage());
                (
                    (b.registers / u64::from(AreaModel::with_storage().register)).to_string(),
                    (b.interconnect / u64::from(AreaModel::with_storage().mux_input)).to_string(),
                    b.total().to_string(),
                )
            }
            Err(_) => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<10} {:>4} {:>6} | {:>6} {:>7} {:>7} | {:>5} {:>5} {:>6}",
            g.name(),
            t,
            40.0,
            fmt(&paper),
            fmt(&refined),
            fmt(&portfolio),
            regs,
            muxes,
            full
        );
    }

    println!("\nFigure 2 regeneration (serial vs. parallel sweep_many)…");
    let record = figure2_perf();
    println!(
        "{} points | {} thread(s) on {} core(s) | serial {:.2}s | parallel {:.2}s | speedup {:.2}x | identical: {}",
        record.points,
        record.threads,
        record.host_cores,
        record.serial_secs,
        record.parallel_secs,
        record.speedup,
        record.outputs_identical,
    );
    let json = serde_json::to_string_pretty(&record).expect("serializable");
    std::fs::write("BENCH_1.json", json).expect("write BENCH_1.json");
    eprintln!("wrote BENCH_1.json");
}
