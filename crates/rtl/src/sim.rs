//! Cycle-accurate simulation of a datapath.

use std::collections::BTreeMap;

use pchls_cdfg::{Cdfg, CdfgError, NodeId, OpKind, Stimulus, Value};

use crate::netlist::Datapath;

/// The result of one datapath simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationRun {
    /// Value of every primary output, by name.
    pub outputs: BTreeMap<String, Value>,
    /// Power measured in each cycle by summing the per-cycle power of the
    /// operations executing on their instances — must agree with the
    /// analytic profile of the design.
    pub power_trace: Vec<f64>,
    /// Final register-file contents (for debugging).
    pub registers: Vec<Value>,
}

/// Executes the datapath's control table on concrete inputs, cycle by
/// cycle: results are written into their destination register when an
/// operation finishes, and operands are read from registers when an
/// operation starts. Register sharing is exercised exactly as the
/// left-edge allocation decided.
///
/// # Errors
///
/// Returns an error if `stimulus` lacks a value for some primary input.
///
/// # Panics
///
/// Panics if the datapath reads a register before anything wrote it —
/// impossible for datapaths built from validated designs.
pub fn simulate(
    graph: &Cdfg,
    datapath: &Datapath,
    stimulus: &Stimulus,
) -> Result<SimulationRun, CdfgError> {
    run_cycles(graph, datapath, stimulus, |_, _| {})
}

/// The cycle loop [`simulate`] and [`trace`](crate::trace) share. At
/// each boundary `0..=latency` it commits the results finishing there,
/// hands the register file to `at_boundary`, and, before the last
/// boundary, launches the operations starting in that cycle.
pub(crate) fn run_cycles(
    graph: &Cdfg,
    datapath: &Datapath,
    stimulus: &Stimulus,
    mut at_boundary: impl FnMut(u32, &[Option<Value>]),
) -> Result<SimulationRun, CdfgError> {
    let mut registers: Vec<Option<Value>> = vec![None; datapath.register_count()];
    let mut outputs = BTreeMap::new();
    // Results computed at start, committed at finish.
    let mut in_flight: Vec<(u32, Option<usize>, NodeId, Value)> = Vec::new();

    for cycle in 0..=datapath.latency() {
        for &(finish, dest, op, value) in &in_flight {
            if finish == cycle {
                if let Some(r) = dest {
                    registers[r] = Some(value);
                }
                let node = graph.node(op);
                if node.kind() == OpKind::Output {
                    outputs.insert(node.label().to_owned(), value);
                }
            }
        }
        in_flight.retain(|&(finish, ..)| finish > cycle);
        at_boundary(cycle, &registers);
        if cycle == datapath.latency() {
            break;
        }
        for step in datapath.steps_at(cycle) {
            let node = graph.node(step.op);
            let read = |port: usize| -> Value {
                let reg = step.sources[port].expect("validated datapaths register all operands");
                registers[reg].expect("register read before write")
            };
            let value = match node.kind() {
                OpKind::Input => *stimulus.get(node.label()).ok_or_else(|| {
                    CdfgError::UnknownOp(format!("missing input {}", node.label()))
                })?,
                OpKind::Add => read(0).wrapping_add(read(1)),
                OpKind::Sub => read(0).wrapping_sub(read(1)),
                OpKind::Mul => read(0).wrapping_mul(read(1)),
                OpKind::Comp => Value::from(read(0) > read(1)),
                OpKind::Output => read(0),
            };
            in_flight.push((cycle + step.delay, step.dest, step.op, value));
        }
    }
    Ok(SimulationRun {
        outputs,
        power_trace: datapath.power_trace(),
        registers: registers.into_iter().map(|v| v.unwrap_or(0)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::{benchmarks, Interpreter};
    use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
    use pchls_fulib::paper_library;
    use pchls_sched::PowerProfile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_stimulus(graph: &Cdfg, rng: &mut StdRng) -> Stimulus {
        graph
            .inputs()
            .map(|n| (n.label().to_owned(), rng.gen_range(-1000..1000)))
            .collect()
    }

    fn check_equivalence(graph: &Cdfg, latency: u32, power: f64) {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(graph);
        let design = engine
            .session(&compiled)
            .synthesize(
                SynthesisConstraints::new(latency, power),
                &SynthesisOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", graph.name()));
        let dp = Datapath::build(graph, &design, engine.library());
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let stim = random_stimulus(graph, &mut rng);
            let run = simulate(graph, &dp, &stim).unwrap();
            let reference = Interpreter::new(graph).run(&stim).unwrap();
            assert_eq!(run.outputs, reference, "{} diverged", graph.name());
        }
        // The measured power trace equals the analytic profile.
        let profile = PowerProfile::of(&design.schedule, &design.timing);
        let stim = random_stimulus(graph, &mut rng);
        let run = simulate(graph, &dp, &stim).unwrap();
        assert_eq!(run.power_trace, profile.per_cycle(), "power trace mismatch");
    }

    #[test]
    fn hal_datapath_matches_interpreter() {
        check_equivalence(&benchmarks::hal(), 17, 25.0);
    }

    #[test]
    fn cosine_datapath_matches_interpreter() {
        check_equivalence(&benchmarks::cosine(), 19, 40.0);
    }

    #[test]
    fn elliptic_datapath_matches_interpreter() {
        check_equivalence(&benchmarks::elliptic(), 22, 60.0);
    }

    #[test]
    fn tight_power_designs_stay_correct() {
        check_equivalence(&benchmarks::hal(), 30, 9.0);
    }

    #[test]
    fn missing_input_is_reported() {
        let g = benchmarks::hal();
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let d = engine
            .session(&compiled)
            .synthesize(
                SynthesisConstraints::new(17, 25.0),
                &SynthesisOptions::default(),
            )
            .unwrap();
        let dp = Datapath::build(&g, &d, engine.library());
        assert!(simulate(&g, &dp, &Stimulus::new()).is_err());
    }
}
