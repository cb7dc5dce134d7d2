//! Shared utilities for regenerating the paper's tables and figures.
//!
//! Each artifact has a dedicated binary:
//!
//! | Artifact | Binary | Content |
//! |---|---|---|
//! | Table 1  | `table1`  | the functional-unit library |
//! | Figure 1 | `figure1` | undesired vs. desired power schedule |
//! | Figure 2 | `figure2` | area vs. power under different latency constraints |
//! | Battery (extension) | `battery_life` | lifetime gain of power-constrained designs |
//! | Ablation | `ablation_table` | area of each heuristic variant on the Figure 2 points |
//! | Regression dashboard | `suite` | every benchmark through paper, refined and portfolio |
//!
//! Binaries print the series to stdout and, where useful, dump JSON
//! under `results/` for `EXPERIMENTS.md`. None of them times anything:
//! `perfbench` (its own workspace under `perfbench/`) is the one
//! benchmark harness. The `BENCH_1.json` … `BENCH_10.json` files at the
//! repository root are history, written by timing binaries that no
//! longer exist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;

use pchls_cdfg::{random_dag, Cdfg, RandomDagConfig};
use pchls_core::{Engine, SweepPoint, SweepSpec, SynthesisConstraints, SynthesisOptions};
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

/// The rand200 case (`ops = 200, seed = 13, P< = 60`): the graph whose
/// decision trace is byte-diffed against
/// `crates/bench/tests/golden/rand200.json`. Its latency bound is twice
/// the fastest-module critical path — generous enough that pasap can
/// stretch under the power cap, tight enough that module selection and
/// pair merging stay non-trivial.
#[must_use]
pub fn rand200_case() -> (String, Cdfg, SynthesisConstraints) {
    let graph = random_dag(&RandomDagConfig {
        ops: 200,
        inputs: 6,
        outputs: 3,
        mul_permille: 300,
        depth_bias: 2,
        seed: 13,
    });
    let timing = TimingMap::from_policy(&graph, &paper_library(), SelectionPolicy::Fastest);
    let latency = pchls_sched::asap(&graph, &timing).latency(&timing) * 2;
    (
        "rand200/13".to_owned(),
        graph,
        SynthesisConstraints::new(latency, 60.0),
    )
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
    use pchls_core::power_sweep_serial;

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
