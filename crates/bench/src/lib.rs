//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each artifact has a dedicated binary:
//!
//! | Artifact | Binary | Content |
//! |---|---|---|
//! | Table 1  | `table1`  | the functional-unit library |
//! | Figure 1 | `figure1` | undesired vs. desired power schedule |
//! | Figure 2 | `figure2` | area vs. power under different latency constraints |
//! | Battery (extension) | `battery_life` | lifetime gain of power-constrained designs |
//!
//! Binaries print the series to stdout and, where useful, dump JSON
//! under `results/` for `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;

use pchls_cdfg::{random_dag, Cdfg, RandomDagConfig};
use pchls_core::{
    power_sweep_serial, CompiledGraph, Engine, SweepJob, SweepPoint, SweepResult, SweepSpec,
    SynthesisConstraints, SynthesisOptions,
};
use pchls_fulib::{paper_library, ModuleLibrary, SelectionPolicy};
use pchls_sched::TimingMap;

/// The `(benchmark, latency)` curves of Figure 2, in the paper's legend
/// order: hal (T=10), hal (T=17), cosine (T=12), cosine (T=15),
/// cosine (T=19), elliptic (T=22).
#[must_use]
pub fn figure2_curves() -> Vec<(Cdfg, u32)> {
    use pchls_cdfg::benchmarks::{cosine, elliptic, hal};
    vec![
        (hal(), 10),
        (hal(), 17),
        (cosine(), 12),
        (cosine(), 15),
        (cosine(), 19),
        (elliptic(), 22),
    ]
}

/// The power grid of Figure 2's x-axis: 0 to 150 power units in steps of
/// 2.5 (the paper's smallest module power).
#[must_use]
pub fn figure2_power_grid() -> Vec<f64> {
    (1..=60).map(|i| f64::from(i) * 2.5).collect()
}

/// Runs one Figure 2 curve (grid points in parallel) through a
/// throwaway [`Engine`] session.
#[must_use]
pub fn run_curve(graph: &Cdfg, library: &ModuleLibrary, latency: u32) -> Vec<SweepPoint> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    engine
        .session(&compiled)
        .sweep(
            &SweepSpec::power(latency, figure2_power_grid()),
            &SynthesisOptions::default(),
        )
        .into_points()
}

/// Runs one Figure 2 curve serially — the baseline [`run_curve`] must
/// match byte-for-byte and beat on wall clock.
#[must_use]
pub fn run_curve_serial(graph: &Cdfg, library: &ModuleLibrary, latency: u32) -> Vec<SweepPoint> {
    power_sweep_serial(
        graph,
        library,
        latency,
        &figure2_power_grid(),
        &SynthesisOptions::default(),
    )
}

/// Regenerates **all** Figure 2 curves at once, fanning every grid point
/// of every curve across the worker pool via
/// [`Engine::sweep_batch`]. Returns one point vector per
/// curve, in [`figure2_curves`] order.
#[must_use]
pub fn run_figure2(library: &ModuleLibrary) -> Vec<Vec<SweepPoint>> {
    let engine = Engine::new(library.clone());
    let curves = figure2_curves();
    let grid = figure2_power_grid();
    // Compile each distinct benchmark once — hal is swept at two
    // latencies but compiled a single time, which is the whole point of
    // the session API.
    let mut compiled: Vec<(String, CompiledGraph)> = Vec::new();
    for (graph, _) in &curves {
        if !compiled.iter().any(|(name, _)| name == graph.name()) {
            compiled.push((graph.name().to_owned(), engine.compile(graph)));
        }
    }
    let jobs: Vec<SweepJob<'_>> = curves
        .iter()
        .map(|(graph, latency)| SweepJob {
            compiled: &compiled
                .iter()
                .find(|(name, _)| name == graph.name())
                .expect("compiled above")
                .1,
            spec: SweepSpec::power(*latency, grid.clone()),
        })
        .collect();
    engine
        .sweep_batch(&jobs, &SynthesisOptions::default())
        .into_iter()
        .map(SweepResult::into_points)
        .collect()
}

/// Latency bound the `scale` workloads use for a graph: twice the
/// fastest-module critical path — generous enough that pasap can
/// stretch under the power cap, tight enough that module selection and
/// pair merging stay non-trivial.
#[must_use]
pub fn scale_latency_for(graph: &Cdfg) -> u32 {
    let lib = paper_library();
    let timing = TimingMap::from_policy(graph, &lib, SelectionPolicy::Fastest);
    pchls_sched::asap(graph, &timing).latency(&timing) * 2
}

/// The canonical random-graph case of the `scale` bench bin:
/// `(name, graph, constraints)` for `ops` operations under `seed`.
/// Shared between the bench binaries and the golden-trace test so the
/// committed decision trace is pinned to exactly the graph the
/// `BENCH_2` rand cases time.
#[must_use]
pub fn scale_random_case(
    ops: usize,
    seed: u64,
    power: f64,
) -> (String, Cdfg, SynthesisConstraints) {
    let graph = random_dag(&RandomDagConfig {
        ops,
        inputs: 6,
        outputs: 3,
        mul_permille: 300,
        depth_bias: 2,
        seed,
    });
    let constraints = SynthesisConstraints::new(scale_latency_for(&graph), power);
    (format!("rand{ops}/{seed}"), graph, constraints)
}

/// The rand200 case (`ops = 200, seed = 13, P< = 60`) — the `scale`
/// workload's largest kernel case and the graph whose decision trace is
/// byte-diffed against `crates/bench/tests/golden/rand200.json` in CI.
#[must_use]
pub fn rand200_case() -> (String, Cdfg, SynthesisConstraints) {
    scale_random_case(200, 13, 60.0)
}

/// Serializes sweep points as JSON into `results/<name>.json`.
///
/// # Panics
///
/// Panics on I/O errors — the harness binaries have no recovery path and
/// a loud failure is the desired behaviour.
pub fn dump_json(name: &str, points: &[SweepPoint]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(points).expect("serializable");
    fs::write(&path, json).expect("write results file");
    eprintln!("wrote {}", path.display());
}

/// Renders sweep points as an aligned text table.
#[must_use]
pub fn format_points(points: &[SweepPoint]) -> String {
    let mut s = String::from("power    area  latency  peak   units\n");
    for p in points {
        match (p.area, p.latency, p.peak_power, p.units) {
            (Some(a), Some(l), Some(pk), Some(u)) => {
                s.push_str(&format!(
                    "{:>5.1} {:>7} {:>8} {:>6.1} {:>6}\n",
                    p.power_bound, a, l, pk, u
                ));
            }
            _ => s.push_str(&format!("{:>5.1}   (infeasible)\n", p.power_bound)),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_fulib::paper_library;

    #[test]
    fn curves_match_the_paper_legend() {
        let curves = figure2_curves();
        let legend: Vec<(String, u32)> = curves
            .iter()
            .map(|(g, t)| (g.name().to_owned(), *t))
            .collect();
        assert_eq!(
            legend,
            vec![
                ("hal".to_owned(), 10),
                ("hal".to_owned(), 17),
                ("cosine".to_owned(), 12),
                ("cosine".to_owned(), 15),
                ("cosine".to_owned(), 19),
                ("elliptic".to_owned(), 22),
            ]
        );
    }

    #[test]
    fn power_grid_spans_the_figure_axis() {
        let grid = figure2_power_grid();
        assert!((grid[0] - 2.5).abs() < 1e-12);
        assert!((grid.last().unwrap() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn hal_t17_curve_is_mostly_feasible_and_monotone() {
        let lib = paper_library();
        let g = pchls_cdfg::benchmarks::hal();
        let pts = run_curve(&g, &lib, 17);
        let areas: Vec<u64> = pts.iter().filter_map(|p| p.area).collect();
        assert!(areas.len() > 40);
        for w in areas.windows(2) {
            assert!(w[1] <= w[0], "{areas:?}");
        }
    }

    #[test]
    fn format_is_row_per_point() {
        let lib = paper_library();
        let g = pchls_cdfg::benchmarks::hal();
        let pts = power_sweep_serial(&g, &lib, 17, &[5.0, 50.0], &SynthesisOptions::default());
        let text = format_points(&pts);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("infeasible"));
    }
}
