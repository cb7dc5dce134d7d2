//! API-equivalence guarantees of the session API: `Session::sweep` must
//! produce the serial reference sweeps' **identical** `figure2.json`
//! bytes on all paper curves, and
//! `Session::batch` over one compiled graph must match one-at-a-time
//! synthesis with a per-point recompile on arbitrary request lists.

use proptest::prelude::*;

use pchls::cdfg::benchmarks;
use pchls::core::{
    power_sweep_serial, Engine, PowerBudget, SweepSpec, SynthesisConstraints, SynthesisOptions,
    SynthesisRequest,
};
use pchls::fulib::paper_library;

/// The Figure 2 curves, `(graph, T)`, in legend order.
fn figure2_curves() -> Vec<(pchls::cdfg::Cdfg, u32)> {
    vec![
        (benchmarks::hal(), 10),
        (benchmarks::hal(), 17),
        (benchmarks::cosine(), 12),
        (benchmarks::cosine(), 15),
        (benchmarks::cosine(), 19),
        (benchmarks::elliptic(), 22),
    ]
}

/// Every 5th point of the Figure 2 power grid — spans the axis at
/// debug-build cost.
fn thinned_grid() -> Vec<f64> {
    (1..=60).map(|i| f64::from(i) * 2.5).step_by(5).collect()
}

#[test]
fn figure2_json_bytes_are_identical_between_serial_and_session_paths() {
    // The exact serialization pipeline behind results/figure2.json, both
    // ways, on every paper curve (thinned grid — the byte-equality
    // guarantee is per point, so grid density changes nothing).
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    let grid = thinned_grid();

    let curves = figure2_curves();
    let compiled: Vec<_> = curves.iter().map(|(g, _)| engine.compile(g)).collect();
    let mut serial_points = Vec::new();
    let mut session_points = Vec::new();
    for ((g, t), compiled) in curves.iter().zip(&compiled) {
        serial_points.extend(power_sweep_serial(g, &lib, *t, &grid, &opts));
        session_points.extend(
            engine
                .session(compiled)
                .sweep(&SweepSpec::power(*t, grid.clone()), &opts)
                .into_points(),
        );
    }
    let serial_json = serde_json::to_vec(&serial_points).unwrap();
    let session_json = serde_json::to_vec(&session_points).unwrap();
    assert_eq!(serial_json, session_json, "figure2.json bytes diverged");
}

/// The latencies random batches draw from: few enough that requests
/// share a latency, and so an interval class in the batch.
const LATENCIES: [u32; 3] = [10, 17, 25];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random request batches through `Session::batch` match
    /// one-at-a-time `synthesize` on a freshly compiled graph exactly —
    /// same designs, same errors, in request order. The first point
    /// repeats, and rides along once more as a flat per-cycle envelope,
    /// so answers reused inside a power interval meet duplicate bounds
    /// and an envelope request of the same latency.
    #[test]
    fn random_request_batches_match_one_at_a_time_synthesis(
        points in proptest::collection::vec((0usize..3, 4.0f64..120.0), 1..16),
        pick_cosine in any::<bool>(),
    ) {
        let g = if pick_cosine { benchmarks::cosine() } else { benchmarks::hal() };
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();

        let (t, p) = (LATENCIES[points[0].0], points[0].1);
        let constraints: Vec<SynthesisConstraints> = points
            .iter()
            .map(|&(t, p)| SynthesisConstraints::new(LATENCIES[t], p))
            .chain([
                SynthesisConstraints::new(t, p),
                SynthesisConstraints::new(t, PowerBudget::per_cycle(vec![p; t as usize])),
            ])
            .collect();
        let results = session.batch(constraints.iter().cloned().map(SynthesisRequest::new));
        prop_assert_eq!(results.len(), constraints.len());
        for (r, c) in results.iter().zip(&constraints) {
            prop_assert_eq!(&r.request.constraints, c);
            // A throwaway engine and compile per point: the batch must
            // also match the per-point recompute path, so compile-once
            // reuse never changes a design.
            let fresh = Engine::new(paper_library());
            let single = fresh.session(&fresh.compile(&g)).synthesize(c.clone(), &opts);
            prop_assert_eq!(&r.outcome, &single, "batch vs single at {:?}", c);
        }
    }
}
