//! API-equivalence guarantees of the session API: `Session::sweep` and
//! `Engine::sweep_batch` must produce the serial reference sweeps'
//! **identical** `figure2.json` bytes on all paper curves, and
//! `Session::batch` over one compiled graph must match one-at-a-time
//! synthesis with a per-point recompile on arbitrary request lists.

use proptest::prelude::*;

use pchls::cdfg::benchmarks;
use pchls::core::{
    power_sweep_serial, Engine, SweepJob, SweepSpec, SynthesisConstraints, SynthesisOptions,
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

    // The whole-figure fan-out agrees too.
    let jobs: Vec<SweepJob<'_>> = curves
        .iter()
        .zip(&compiled)
        .map(|((_, t), compiled)| SweepJob {
            compiled,
            spec: SweepSpec::power(*t, grid.clone()),
        })
        .collect();
    let batch: Vec<_> = engine
        .sweep_batch(&jobs, &opts)
        .into_iter()
        .flat_map(|sweep| sweep.into_points())
        .collect();
    let batch_json = serde_json::to_vec(&batch).unwrap();
    assert_eq!(batch_json, serial_json, "sweep_batch bytes diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random `(T, P<)` request batches through `Session::batch` match
    /// one-at-a-time `synthesize` on a freshly compiled graph — same
    /// designs, same feasibility, in request order.
    #[test]
    fn random_request_batches_match_one_at_a_time_synthesis(
        points in proptest::collection::vec((5u32..40, 4.0f64..120.0), 1..12),
        pick_cosine in any::<bool>(),
    ) {
        let g = if pick_cosine { benchmarks::cosine() } else { benchmarks::hal() };
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();

        let requests: Vec<SynthesisRequest> = points
            .iter()
            .map(|&(t, p)| SynthesisRequest::new(SynthesisConstraints::new(t, p)))
            .collect();
        let results = session.batch(requests.clone());
        prop_assert_eq!(results.len(), requests.len());
        for (r, &(t, p)) in results.iter().zip(&points) {
            let c = SynthesisConstraints::new(t, p);
            prop_assert_eq!(r.request.constraints.clone(), c.clone());
            // A throwaway engine and compile per point: the batch must
            // also match the per-point recompute path, so compile-once
            // reuse never changes a design.
            let fresh = Engine::new(paper_library());
            let single = fresh.session(&fresh.compile(&g)).synthesize(c, &opts);
            match (&r.outcome, single) {
                (Ok(b), Ok(s)) => {
                    prop_assert_eq!(b, &s, "batch vs single at T={} P={}", t, p);
                }
                (Err(_), Err(_)) => {}
                (b, s) => prop_assert!(
                    false,
                    "feasibility diverged at T={} P={}: batch {}, single {}",
                    t, p, b.is_ok(), s.is_ok()
                ),
            }
        }
    }
}
