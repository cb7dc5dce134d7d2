//! The tentpole guarantee of the parallel exploration layer: fanning
//! grid points across cores must not change a single byte of the output.
//! Every Figure 2 curve is swept both ways (`Session::sweep` vs. the
//! serial reference) over a thinned power grid and compared for exact
//! equality.

use pchls_bench::{figure2_curves, figure2_power_grid};
use pchls_core::{power_sweep_serial, Engine, SweepSpec, SynthesisOptions};
use pchls_fulib::paper_library;

/// Every 5th point of the Figure 2 grid: spans the whole axis (including
/// the infeasible low-power edge and the flat high-power tail) at a cost
/// debug-mode CI can afford.
fn thinned_grid() -> Vec<f64> {
    figure2_power_grid().into_iter().step_by(5).collect()
}

#[test]
fn per_curve_parallel_sweep_equals_serial_on_all_figure2_curves() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let grid = thinned_grid();
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let parallel = engine.session(&compiled).sweep(
            &SweepSpec::power(latency, grid.clone()),
            &SynthesisOptions::default(),
        );
        let serial = power_sweep_serial(&graph, &lib, latency, &grid, &SynthesisOptions::default());
        assert_eq!(
            parallel.points,
            serial,
            "{} T={latency} diverged",
            graph.name()
        );
    }
}

#[test]
fn parallel_sweeps_are_reproducible_across_runs() {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&pchls_cdfg::benchmarks::elliptic());
    let spec = SweepSpec::power(22, thinned_grid());
    let a = engine
        .session(&compiled)
        .sweep(&spec, &SynthesisOptions::default());
    let b = engine
        .session(&compiled)
        .sweep(&spec, &SynthesisOptions::default());
    assert_eq!(a, b);
}

/// The kernel-level guarantee: the worker-pool width must not leak
/// into `synthesize` — designs *and* effort counters are identical
/// under a 1-thread and a 4-thread cap on every Figure 2 curve, across
/// the whole power axis (feasible and infeasible points alike).
#[test]
fn kernel_trace_is_thread_count_independent_on_figure2_curves() {
    let engine = Engine::new(paper_library());
    let opts = SynthesisOptions::default();
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        for power in thinned_grid() {
            let constraints = pchls_core::SynthesisConstraints::new(latency, power);
            let one =
                pchls_par::with_thread_count(1, || session.synthesize(constraints.clone(), &opts));
            let four = pchls_par::with_thread_count(4, || session.synthesize(constraints, &opts));
            match (one, four) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{} T={latency} P={power} design", graph.name());
                    assert_eq!(
                        a.stats,
                        b.stats,
                        "{} T={latency} P={power} trace",
                        graph.name()
                    );
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "{} T={latency} P={power}: feasibility diverged (1 thread ok: {}, 4 threads ok: {})",
                    graph.name(),
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

/// Larger-than-paper graphs: the trace under a 4-thread cap must still
/// equal the 1-thread one.
#[test]
fn kernel_trace_is_thread_count_independent_on_large_random_graphs() {
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    let opts = SynthesisOptions::default();
    for seed in [11, 12] {
        let graph = pchls_cdfg::random_dag(&pchls_cdfg::RandomDagConfig {
            ops: 60,
            inputs: 6,
            outputs: 3,
            mul_permille: 300,
            depth_bias: 2,
            seed,
        });
        let timing = pchls_sched::TimingMap::from_policy(
            &graph,
            &lib,
            pchls_fulib::SelectionPolicy::Fastest,
        );
        let latency = pchls_sched::asap(&graph, &timing).latency(&timing) * 2;
        let constraints = pchls_core::SynthesisConstraints::new(latency, 60.0);
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        let one =
            pchls_par::with_thread_count(1, || session.synthesize(constraints.clone(), &opts))
                .expect("feasible");
        let four = pchls_par::with_thread_count(4, || session.synthesize(constraints, &opts))
            .expect("feasible");
        assert_eq!(one, four, "seed {seed} design");
        assert_eq!(one.stats, four.stats, "seed {seed} trace");
    }
}
