//! Design-space exploration: the sweeps behind Figure 2.
//!
//! [`Session::sweep`](crate::Session::sweep) and
//! [`Engine::sweep_batch`](crate::Engine::sweep_batch) run the grid
//! points in parallel; the serial reference sweeps here are the
//! baseline the determinism tests and the perf suite compare against.

use serde::{Deserialize, Serialize};

use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;

use crate::constraints::SynthesisConstraints;
use crate::engine::{CompiledGraph, Engine};
use crate::options::SynthesisOptions;
use crate::synthesis::synthesize_session;

/// One point of a constraint sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Latency constraint `T`.
    pub latency_bound: u32,
    /// Power constraint `P<`.
    pub power_bound: f64,
    /// Synthesized functional-unit area, if the point was feasible.
    pub area: Option<u64>,
    /// Achieved latency, if feasible.
    pub latency: Option<u32>,
    /// Achieved peak power, if feasible.
    pub peak_power: Option<f64>,
    /// Number of functional-unit instances, if feasible.
    pub units: Option<usize>,
}

impl SweepPoint {
    /// Whether synthesis succeeded at this point.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.area.is_some()
    }
}

/// Which constraint axis a sweep varies (and therefore which field the
/// monotone-envelope pass rewrites when it carries a better design
/// forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SweepAxis {
    Power,
    Latency,
}

/// Synthesizes `graph` at a fixed latency for every power bound in
/// `powers`, one synthesis at a time, producing one curve of Figure 2.
///
/// Any design feasible under a tight power bound remains feasible under
/// every looser one, so each point reports the best design found at any
/// bound `≤ P` — the monotone envelope of the greedy's raw output. (A
/// greedy heuristic can otherwise produce occasional upward blips where
/// *less* pressure sends it down a worse path; the envelope is what a
/// designer sweeping the constraint would actually keep.)
///
/// This is the serial reference:
/// [`Session::sweep`](crate::Session::sweep) with
/// [`SweepSpec::power`](crate::SweepSpec::power) runs the raw points in
/// parallel and must return exactly these points.
#[must_use]
pub fn power_sweep_serial(
    graph: &Cdfg,
    library: &ModuleLibrary,
    latency: u32,
    powers: &[f64],
    options: &SynthesisOptions,
) -> Vec<SweepPoint> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    let raw = powers
        .iter()
        .map(|&p| {
            run_point(
                &engine,
                &compiled,
                SynthesisConstraints::new(latency, p),
                options,
            )
        })
        .collect();
    envelope(raw, &power_order(powers), SweepAxis::Power)
}

/// Synthesizes `graph` at a fixed power bound for every latency in
/// `latencies` (the orthogonal cut through the constraint space), one
/// synthesis at a time.
///
/// Each point reports the best design found at any latency `≤ T` — a
/// design meeting a tighter deadline meets every looser one. The serial
/// reference for [`Session::sweep`](crate::Session::sweep) with
/// [`SweepSpec::latency`](crate::SweepSpec::latency).
#[must_use]
pub fn latency_sweep_serial(
    graph: &Cdfg,
    library: &ModuleLibrary,
    power: f64,
    latencies: &[u32],
    options: &SynthesisOptions,
) -> Vec<SweepPoint> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    let raw = latencies
        .iter()
        .map(|&t| {
            run_point(
                &engine,
                &compiled,
                SynthesisConstraints::new(t, power),
                options,
            )
        })
        .collect();
    envelope(raw, &latency_order(latencies), SweepAxis::Latency)
}

/// Ascending visit order over a float grid.
pub(crate) fn power_order(powers: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..powers.len()).collect();
    order.sort_by(|&a, &b| powers[a].partial_cmp(&powers[b]).expect("finite bounds"));
    order
}

/// Ascending visit order over a latency grid.
pub(crate) fn latency_order(latencies: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..latencies.len()).collect();
    order.sort_by_key(|&i| latencies[i]);
    order
}

/// The sequential monotone-envelope pass: visiting raw points in
/// ascending-constraint `order`, replaces any point worse than the best
/// seen so far with that best design (re-labelled to the point's own
/// bound). Points are moved, not cloned; only an actual carry copies the
/// best design into the slot.
pub(crate) fn envelope(raw: Vec<SweepPoint>, order: &[usize], axis: SweepAxis) -> Vec<SweepPoint> {
    let mut points = raw;
    let mut best: Option<usize> = None;
    for &i in order {
        if let Some(b) = best {
            let best_area = points[b].area.expect("best is feasible");
            if best_area < points[i].area.unwrap_or(u64::MAX) {
                let mut carried = points[b].clone();
                match axis {
                    SweepAxis::Power => carried.power_bound = points[i].power_bound,
                    SweepAxis::Latency => carried.latency_bound = points[i].latency_bound,
                }
                points[i] = carried;
            }
        }
        if points[i].is_feasible() {
            best = Some(i);
        }
    }
    points
}

/// Filters sweep points down to the pareto front over
/// `(power bound, latency bound, area)`: points for which no other
/// feasible point is at least as good on all three axes and strictly
/// better on one. Infeasible points never appear.
#[must_use]
pub fn pareto_front(points: &[SweepPoint]) -> Vec<SweepPoint> {
    // Index-based dominance: the O(n²) comparison loop touches only
    // borrowed points; the single clone per point happens for survivors
    // at collection time.
    let feasible: Vec<usize> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_feasible())
        .map(|(i, _)| i)
        .collect();
    let dominates = |b: &SweepPoint, a: &SweepPoint| {
        let (b_area, a_area) = (b.area.expect("feasible"), a.area.expect("feasible"));
        let no_worse = b.power_bound <= a.power_bound
            && b.latency_bound <= a.latency_bound
            && b_area <= a_area;
        let better =
            b.power_bound < a.power_bound || b.latency_bound < a.latency_bound || b_area < a_area;
        no_worse && better
    };
    feasible
        .iter()
        .filter(|&&i| {
            !feasible
                .iter()
                .any(|&j| j != i && dominates(&points[j], &points[i]))
        })
        .map(|&i| points[i].clone())
        .collect()
}

/// One grid point through the session kernel, summarized for a sweep
/// (the one `Result` → [`SweepPoint`] construction site, shared with
/// [`crate::SynthesisResult::to_point`]).
pub(crate) fn run_point(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: SynthesisConstraints,
    options: &SynthesisOptions,
) -> SweepPoint {
    use crate::engine::{SynthesisRequest, SynthesisResult};
    let outcome = synthesize_session(engine, compiled, &constraints, options, None);
    SynthesisResult {
        request: SynthesisRequest::new(constraints).with_options(*options),
        outcome,
    }
    .to_point(compiled.name())
}

/// A sensible power grid for sweeping `graph`: `steps` evenly spaced
/// bounds from just under the cheapest single operation's power up to
/// the peak of the power-oblivious ASAP design (beyond which the
/// constraint stops binding) plus one step of headroom.
#[must_use]
pub fn auto_power_grid(graph: &Cdfg, library: &ModuleLibrary, steps: usize) -> Vec<f64> {
    let engine = Engine::new(library.clone());
    let compiled = engine.compile(graph);
    engine.session(&compiled).auto_power_grid(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepJob, SweepSpec};
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    /// The parallel session sweep over a fresh compile.
    fn session_sweep(
        graph: &Cdfg,
        library: &ModuleLibrary,
        spec: &SweepSpec,
        options: &SynthesisOptions,
    ) -> Vec<SweepPoint> {
        let engine = Engine::new(library.clone());
        let compiled = engine.compile(graph);
        engine.session(&compiled).sweep(spec, options).into_points()
    }

    fn power_sweep(
        graph: &Cdfg,
        library: &ModuleLibrary,
        latency: u32,
        powers: &[f64],
        options: &SynthesisOptions,
    ) -> Vec<SweepPoint> {
        session_sweep(
            graph,
            library,
            &SweepSpec::power(latency, powers.to_vec()),
            options,
        )
    }

    fn latency_sweep(
        graph: &Cdfg,
        library: &ModuleLibrary,
        power: f64,
        latencies: &[u32],
        options: &SynthesisOptions,
    ) -> Vec<SweepPoint> {
        session_sweep(
            graph,
            library,
            &SweepSpec::latency(power, latencies.to_vec()),
            options,
        )
    }

    #[test]
    fn power_sweep_area_is_monotone_nonincreasing_on_hal() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 8);
        let points = power_sweep(&g, &lib, 17, &grid, &SynthesisOptions::default());
        let areas: Vec<u64> = points.iter().filter_map(|p| p.area).collect();
        assert!(areas.len() >= 4, "most of the grid is feasible");
        for w in areas.windows(2) {
            assert!(w[1] <= w[0], "area must not grow with power: {areas:?}");
        }
    }

    #[test]
    fn infeasible_points_are_marked() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let points = power_sweep(&g, &lib, 10, &[0.5, 1e6], &SynthesisOptions::default());
        assert!(!points[0].is_feasible());
        assert!(points[1].is_feasible());
    }

    #[test]
    fn tighter_latency_curve_dominates() {
        // Figure 2: the T=10 hal curve lies above the T=17 curve.
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = [30.0, 60.0, 120.0];
        let tight = power_sweep(&g, &lib, 10, &grid, &SynthesisOptions::default());
        let loose = power_sweep(&g, &lib, 17, &grid, &SynthesisOptions::default());
        for (a, b) in tight.iter().zip(&loose) {
            if let (Some(at), Some(bt)) = (a.area, b.area) {
                assert!(at >= bt, "T=10 area {at} < T=17 area {bt}");
            }
        }
    }

    #[test]
    fn auto_grid_brackets_the_interesting_region() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 10);
        assert_eq!(grid.len(), 10);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!((grid[0] - 8.1).abs() < 1e-9, "starts at mult_par power");
    }

    #[test]
    fn latency_sweep_runs_and_is_monotone() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let pts = latency_sweep(
            &g,
            &lib,
            25.0,
            &[8, 12, 17, 25],
            &SynthesisOptions::default(),
        );
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().skip(1).all(SweepPoint::is_feasible));
        let areas: Vec<u64> = pts.iter().filter_map(|p| p.area).collect();
        for w in areas.windows(2) {
            assert!(w[1] <= w[0], "{areas:?}");
        }
    }

    #[test]
    fn parallel_power_sweep_equals_serial() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let grid = auto_power_grid(&g, &lib, 12);
        for t in [10, 17] {
            let par = power_sweep(&g, &lib, t, &grid, &SynthesisOptions::default());
            let ser = power_sweep_serial(&g, &lib, t, &grid, &SynthesisOptions::default());
            assert_eq!(par, ser, "T={t}");
        }
    }

    #[test]
    fn parallel_latency_sweep_equals_serial() {
        let g = benchmarks::cosine();
        let lib = paper_library();
        let lats = [10, 12, 15, 19, 25];
        let par = latency_sweep(&g, &lib, 30.0, &lats, &SynthesisOptions::default());
        let ser = latency_sweep_serial(&g, &lib, 30.0, &lats, &SynthesisOptions::default());
        assert_eq!(par, ser);
    }

    #[test]
    fn sweep_many_matches_per_curve_sweeps() {
        let hal = benchmarks::hal();
        let cosine = benchmarks::cosine();
        let grid = [10.0, 20.0, 40.0, 80.0];
        let opts = SynthesisOptions::default();
        let lib = paper_library();
        let engine = Engine::new(lib.clone());
        let (hal_c, cosine_c) = (engine.compile(&hal), engine.compile(&cosine));
        let jobs = [
            SweepJob {
                compiled: &hal_c,
                spec: SweepSpec::power(17, grid.to_vec()),
            },
            SweepJob {
                compiled: &cosine_c,
                spec: SweepSpec::power(15, grid.to_vec()),
            },
        ];
        let many = engine.sweep_batch(&jobs, &opts);
        assert_eq!(many.len(), 2);
        assert_eq!(
            many[0].points,
            power_sweep_serial(&hal, &lib, 17, &grid, &opts)
        );
        assert_eq!(
            many[1].points,
            power_sweep_serial(&cosine, &lib, 15, &grid, &opts)
        );
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let mut all = Vec::new();
        for t in [10, 17] {
            all.extend(power_sweep(
                &g,
                &lib,
                t,
                &[10.0, 20.0, 40.0],
                &SynthesisOptions::default(),
            ));
        }
        let front = pareto_front(&all);
        assert!(!front.is_empty());
        assert!(front.len() <= all.iter().filter(|p| p.is_feasible()).count());
        // No point on the front dominates another front point.
        for a in &front {
            for b in &front {
                if a == b {
                    continue;
                }
                let dominates = b.power_bound <= a.power_bound
                    && b.latency_bound <= a.latency_bound
                    && b.area <= a.area
                    && (b.power_bound < a.power_bound
                        || b.latency_bound < a.latency_bound
                        || b.area < a.area);
                assert!(!dominates, "{b:?} dominates {a:?}");
            }
        }
    }
}
