//! Power-invariance intervals.
//!
//! Under a constant budget `P` the kernel reads `P` only through exact
//! comparisons `x ≤ bound_quanta(P)`, and each run reports the interval
//! of bound quanta over which all of them decide alike
//! ([`Session::synthesize_with_interval`]). These tests check that the
//! interval is an exact equivalence class — every bound inside it gets
//! the same answer and reports the same interval — and that a power
//! sweep built on it ([`Session::sweep`]) runs the kernel once per
//! distinct answer without moving a single point.

use proptest::prelude::*;

use pchls_bench::{figure2_curves, figure2_power_grid};
use pchls_cdfg::{random_dag, Cdfg, RandomDagConfig};
use pchls_core::{
    power_sweep_serial, Engine, Session, SweepSpec, SynthesisConstraints, SynthesisError,
    SynthesisOptions, SynthesizedDesign,
};
use pchls_fulib::{bound_quanta, paper_library, units};
use pchls_sched::{PowerInterval, ScheduleError};

type Outcome = Result<SynthesizedDesign, SynthesisError>;

/// `err` with the bound it names zeroed: the one part of an answer that
/// repeats `P` instead of deciding a comparison on it.
fn unlabelled(err: &SynthesisError) -> SynthesisError {
    let strip = |e: &ScheduleError| match e.clone() {
        ScheduleError::Infeasible { node, horizon, .. } => ScheduleError::Infeasible {
            node,
            horizon,
            max_power: 0.0,
        },
        ScheduleError::OpExceedsBudget { node, power, .. } => ScheduleError::OpExceedsBudget {
            node,
            power,
            max_power: 0.0,
        },
        ScheduleError::PowerExceeded { cycle, power, .. } => ScheduleError::PowerExceeded {
            cycle,
            power,
            bound: 0.0,
        },
        other => other,
    };
    match err {
        SynthesisError::Infeasible { cause } => SynthesisError::Infeasible {
            cause: strip(cause),
        },
        SynthesisError::Schedule(e) => SynthesisError::Schedule(strip(e)),
        other => other.clone(),
    }
}

/// Whether `b` is `a`'s answer in every field but the constraints (and,
/// for an error, the bound it names).
fn same_answer(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let mut b = b.clone();
            b.constraints = a.constraints.clone();
            *a == b
        }
        (Err(a), Err(b)) => unlabelled(a) == unlabelled(b),
        _ => false,
    }
}

fn graph(ops: usize, seed: u64, mul_permille: u32) -> Cdfg {
    random_dag(&RandomDagConfig {
        ops,
        inputs: 4,
        outputs: 3,
        mul_permille,
        depth_bias: 1,
        seed,
    })
}

/// Runs `session` at constant bound `power`, returning the answer and
/// its interval.
fn run(
    session: &Session<'_>,
    latency: u32,
    power: f64,
    options: &SynthesisOptions,
) -> (Outcome, PowerInterval) {
    let (outcome, interval) =
        session.synthesize_with_interval(SynthesisConstraints::new(latency, power), options);
    (
        outcome,
        interval.expect("a constant budget reports its interval"),
    )
}

/// Runs `session` at `power`, then at either end of the reported
/// interval and at a draw from inside it (`pick` of the way up); each
/// must answer as the first run did and report the identical interval.
/// An unbounded interval is probed at the infinite bound and at a finite
/// stretch above `lo`.
fn check_interval(
    session: &Session<'_>,
    latency: u32,
    power: f64,
    pick: f64,
    options: &SynthesisOptions,
) -> Result<(), TestCaseError> {
    let (answer, interval) = run(session, latency, power, options);
    prop_assert!(
        interval.covers(bound_quanta(power)),
        "{interval:?} misses P={power}"
    );
    let top = if interval.is_bounded() {
        interval.hi
    } else {
        interval.lo + 60_000
    };
    let inside = interval.lo + ((top - interval.lo) as f64 * pick) as u64;
    let mut probes: Vec<f64> = [interval.lo, top - 1, inside.min(top - 1)]
        .into_iter()
        .map(units)
        .collect();
    if !interval.is_bounded() {
        probes.push(f64::INFINITY);
    }
    for p in probes {
        prop_assert!(
            interval.covers(bound_quanta(p)),
            "{interval:?} misses P′={p}"
        );
        let (reused, again) = run(session, latency, p, options);
        prop_assert!(
            same_answer(&answer, &reused),
            "P={power} and P′={p} inside {interval:?} answer differently:\n{answer:?}\n{reused:?}"
        );
        prop_assert_eq!(again, interval, "P′={} reports another interval", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A bound drawn anywhere inside a run's interval answers exactly as
    /// the run did and reports the identical interval.
    #[test]
    fn every_bound_inside_the_interval_gets_the_same_answer(
        ops in 6usize..40,
        seed in any::<u64>(),
        mul_permille in 0u32..700,
        stretch in 0u32..3,
        power in 2.0f64..45.0,
        pick in 0.0f64..1.0,
        module_selection in any::<bool>(),
        backtracking in any::<bool>(),
    ) {
        let graph = graph(ops, seed, mul_permille);
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&graph);
        let latency = compiled.min_latency() * (2 + stretch) / 2;
        let options = SynthesisOptions {
            module_selection,
            backtracking,
            ..SynthesisOptions::default()
        };
        check_interval(&engine.session(&compiled), latency, power, pick, &options)?;
    }

    /// The same on small graphs with loose deadlines under bounds around
    /// the parallel multiplier's 8.1, where few comparisons fail and the
    /// can-never-fit rejects of single modules bound the interval.
    #[test]
    fn small_graphs_under_low_bounds(
        ops in 1usize..12,
        seed in any::<u64>(),
        mul_permille in 200u32..900,
        stretch in 0u32..4,
        power in 0.5f64..12.0,
        pick in 0.0f64..1.0,
    ) {
        let graph = graph(ops, seed, mul_permille);
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&graph);
        let latency = compiled.min_latency() * (1 + stretch);
        let options = SynthesisOptions::default();
        check_interval(&engine.session(&compiled), latency, power, pick, &options)?;
    }
}

/// Backtracking rebuilds the kernel's ledger, keeping the record of
/// the comparisons made before it. Backtracks are rare (about 1.5% of
/// random points), so this scans a fixed set of tight points for the
/// runs that take one.
#[test]
fn backtracking_runs_keep_their_interval() {
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let mut backtracked = 0;
    for seed in 0..300u64 {
        let graph = graph(6 + (seed % 60) as usize, seed, 350);
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        let latency = compiled.min_latency() + (seed as u32 % 3) * compiled.min_latency() / 4;
        let power = 8.0 + (seed % 97) as f64 * 0.25;
        let (answer, _) = run(&session, latency, power, &options);
        if answer.is_ok_and(|d| d.stats.backtracks > 0) {
            backtracked += 1;
            let pick = (seed % 10) as f64 / 10.0;
            if let Err(e) = check_interval(&session, latency, power, pick, &options) {
                panic!("seed {seed}: {e}");
            }
        }
    }
    assert!(backtracked >= 3, "only {backtracked} runs backtracked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A power sweep that reuses answers inside intervals returns
    /// exactly the points of the serial reference, which runs every
    /// grid point.
    #[test]
    fn interval_sweeps_equal_the_serial_reference(
        ops in 6usize..40,
        seed in any::<u64>(),
        mul_permille in 0u32..700,
        stretch in 0u32..3,
        low in 1.0f64..10.0,
        step in 0.1f64..3.0,
    ) {
        let graph = graph(ops, seed, mul_permille);
        let library = paper_library();
        let engine = Engine::new(library.clone());
        let compiled = engine.compile(&graph);
        let latency = compiled.min_latency() * (2 + stretch) / 2;
        let grid: Vec<f64> = (0..16).map(|i| low + step * f64::from(i)).collect();
        let options = SynthesisOptions::default();
        let swept = engine
            .session(&compiled)
            .sweep(&SweepSpec::power(latency, grid.clone()), &options);
        prop_assert!(swept.kernel_runs <= grid.len());
        let serial = power_sweep_serial(&graph, &library, latency, &grid, &options);
        prop_assert_eq!(swept.points, serial);
    }
}

/// Figure 2's six curves of 60 points each have 78 distinct answers, so
/// their sweeps run the kernel 78 times — at any thread count — and
/// count the runs and the 282 reused points. (Other tests of this
/// binary run concurrently, so the process-wide counters grow by at
/// least that much.)
#[test]
fn figure2_runs_the_kernel_once_per_distinct_answer() {
    let engine = Engine::new(paper_library());
    let global = pchls_obs::global();
    let counts = || {
        ["pchls_kernel_runs_total", "pchls_sweep_points_reused_total"]
            .map(|name| global.counter(name).get())
    };
    for threads in [1, 2] {
        let before = counts();
        let (mut runs, mut points) = (0, 0);
        pchls_par::with_thread_count(threads, || {
            for (graph, latency) in figure2_curves() {
                let compiled = engine.compile(&graph);
                let swept = engine.session(&compiled).sweep(
                    &SweepSpec::power(latency, figure2_power_grid()),
                    &SynthesisOptions::default(),
                );
                runs += swept.kernel_runs;
                points += swept.points.len();
            }
        });
        assert_eq!((runs, points), (78, 360), "{threads} thread(s)");
        let after = counts();
        assert!(after[0] - before[0] >= 78 && after[1] - before[1] >= 282);
    }
}

/// Envelope sweeps have no interval to reuse: every grid point runs.
#[test]
fn other_sweeps_run_every_point() {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&pchls_cdfg::benchmarks::hal());
    let session = engine.session(&compiled);
    let options = SynthesisOptions::default();
    let budget = pchls_sched::PowerBudget::steps(vec![(0, 40.0), (5, 15.0)]);
    let scale = SweepSpec::budget_scale(10, budget.clone(), vec![0.5, 1.0, 1.0, 2.0]);
    assert_eq!(session.sweep(&scale, &options).kernel_runs, 4);
    let (_, interval) =
        session.synthesize_with_interval(SynthesisConstraints::new(10, budget), &options);
    assert_eq!(interval, None, "an envelope budget reports no interval");
}
