//! Interval reuse through `Session::batch`.
//!
//! Each Figure 2 curve's grid goes through one `batch` call in shuffled
//! order, with no sweep around it: the batch itself orders the grid by
//! bound and runs the kernel once per distinct answer, exactly as a
//! sweep does. This binary holds a single test, so the process-wide
//! counters it reads move only for its own batches.

use pchls_bench::{figure2_curves, figure2_power_grid};
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions, SynthesisRequest};
use pchls_fulib::paper_library;

/// Figure 2's 360 points in six shuffled batches run the kernel 78
/// times, count the other 282 as reused, and each answer equals a
/// one-at-a-time `synthesize` at its own point. The 78 runs rank a
/// first block in each of their iterations and fall back to a full
/// ranking in the few whose first block is rejected whole.
#[test]
fn shuffled_figure2_batches_run_the_kernel_once_per_distinct_answer() {
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let global = pchls_obs::global();
    let counts = || {
        [
            "pchls_kernel_runs_total",
            "pchls_sweep_points_reused_total",
            "pchls_kernel_rankings_total{block=\"first\"}",
            "pchls_kernel_rankings_total{block=\"full\"}",
        ]
        .map(|name| global.counter(name).get())
    };
    let grid = figure2_power_grid();
    // A fixed shuffle: stride 37 is coprime to the grid's 60 points.
    let shuffled: Vec<f64> = (0..grid.len()).map(|i| grid[i * 37 % grid.len()]).collect();
    let compiled: Vec<_> = figure2_curves()
        .into_iter()
        .map(|(graph, latency)| (engine.compile(&graph), latency))
        .collect();

    let before = counts();
    let batches: Vec<_> = compiled
        .iter()
        .map(|(compiled, latency)| {
            engine.session(compiled).batch(
                shuffled
                    .iter()
                    .map(|&p| SynthesisRequest::new(SynthesisConstraints::new(*latency, p))),
            )
        })
        .collect();
    let after = counts();
    let moved: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        moved,
        [78, 282, 1_785, 287],
        "kernel runs, reused requests, first-block and full rankings"
    );

    for ((compiled, latency), results) in compiled.iter().zip(&batches) {
        let session = engine.session(compiled);
        for (result, &p) in results.iter().zip(&shuffled) {
            let constraints = SynthesisConstraints::new(*latency, p);
            assert_eq!(result.request.constraints, constraints);
            assert_eq!(
                result.outcome,
                session.synthesize(constraints, &options),
                "{} T={latency} P={p}",
                compiled.name()
            );
        }
    }
}
