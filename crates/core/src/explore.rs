//! Design-space exploration: the power sweeps behind Figure 2 (area
//! against the power bound at a fixed latency `T`).
//!
//! [`Session::sweep`](crate::Session::sweep) runs the grid points in
//! parallel through [`Session::batch`](crate::Session::batch) and then
//! applies [`SweepSpec::envelope`](crate::SweepSpec::envelope); the
//! serial reference [`power_sweep_serial`] is the baseline the
//! determinism tests compare against.

use serde::{Deserialize, Serialize};

use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;

use crate::constraints::SynthesisConstraints;
use crate::engine::{CompiledGraph, Engine};
use crate::options::SynthesisOptions;
use crate::synthesis::synthesize_recorded;

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
    envelope(raw, &power_order(powers))
}

/// Ascending visit order over a float grid.
pub(crate) fn power_order(powers: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..powers.len()).collect();
    order.sort_by(|&a, &b| powers[a].partial_cmp(&powers[b]).expect("finite bounds"));
    order
}

/// The sequential monotone-envelope pass: visiting raw points in
/// ascending-bound `order`, replaces any point worse than the best seen
/// so far with that best design (re-labelled to the point's own power
/// bound). Points are moved, not cloned; only an actual carry copies
/// the best design into the slot.
pub(crate) fn envelope(raw: Vec<SweepPoint>, order: &[usize]) -> Vec<SweepPoint> {
    let mut points = raw;
    let mut best: Option<usize> = None;
    for &i in order {
        if let Some(b) = best {
            let best_area = points[b].area.expect("best is feasible");
            if best_area < points[i].area.unwrap_or(u64::MAX) {
                let mut carried = points[b].clone();
                carried.power_bound = points[i].power_bound;
                points[i] = carried;
            }
        }
        if points[i].is_feasible() {
            best = Some(i);
        }
    }
    points
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
    let outcome = synthesize_recorded(engine, compiled, &constraints, options, None).0;
    SynthesisResult {
        request: SynthesisRequest::new(constraints).with_options(*options),
        outcome,
    }
    .to_point(compiled.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepSpec;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    /// The parallel session sweep over a fresh compile.
    fn power_sweep(
        graph: &Cdfg,
        library: &ModuleLibrary,
        latency: u32,
        powers: &[f64],
        options: &SynthesisOptions,
    ) -> Vec<SweepPoint> {
        let engine = Engine::new(library.clone());
        let compiled = engine.compile(graph);
        let spec = SweepSpec::power(latency, powers.to_vec());
        engine
            .session(&compiled)
            .sweep(&spec, options)
            .into_points()
    }

    #[test]
    fn power_sweep_area_is_monotone_nonincreasing_on_hal() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let engine = Engine::new(lib.clone());
        let grid = engine.session(&engine.compile(&g)).auto_power_grid(8);
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
        let engine = Engine::new(lib.clone());
        let grid = engine.session(&engine.compile(&g)).auto_power_grid(10);
        assert_eq!(grid.len(), 10);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(grid[0], 8.1, "starts at mult_par power");
    }

    #[test]
    fn parallel_power_sweep_equals_serial() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let engine = Engine::new(lib.clone());
        let grid = engine.session(&engine.compile(&g)).auto_power_grid(12);
        for t in [10, 17] {
            let par = power_sweep(&g, &lib, t, &grid, &SynthesisOptions::default());
            let ser = power_sweep_serial(&g, &lib, t, &grid, &SynthesisOptions::default());
            assert_eq!(par, ser, "T={t}");
        }
    }
}
