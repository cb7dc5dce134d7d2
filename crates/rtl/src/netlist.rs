//! Datapath structure and control table.

use pchls_bind::{InstanceId, RegisterAllocation};
use pchls_cdfg::{Cdfg, NodeId};
use pchls_core::SynthesizedDesign;
use pchls_fulib::ModuleLibrary;

/// One micro-operation of the control table: at `start`, instance
/// `instance` begins executing CDFG operation `op`, reading its operands
/// from `sources` (registers, or primary inputs for `None`) and — once
/// finished `delay` cycles later — writing its result to `dest`
/// (`None` for operations whose value is unused or exported).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlStep {
    /// Start cycle.
    pub start: u32,
    /// Execution delay in cycles.
    pub delay: u32,
    /// Power drawn in each executing cycle (from the bound module), in
    /// quanta ([`pchls_fulib::quanta`]).
    pub power: u64,
    /// The CDFG operation performed.
    pub op: NodeId,
    /// The functional unit executing it.
    pub instance: InstanceId,
    /// Source register per operand port (`None` = the operand is read
    /// from outside the datapath, which never happens for valid designs —
    /// inputs are operations too — but keeps the table total).
    pub sources: Vec<Option<usize>>,
    /// Destination register for the result.
    pub dest: Option<usize>,
}

/// The RT-level structure of a synthesized design.
#[derive(Debug, Clone)]
pub struct Datapath {
    registers: RegisterAllocation,
    steps: Vec<ControlStep>,
    latency: u32,
    fu_count: usize,
}

impl Datapath {
    /// Materializes `design` into a datapath.
    ///
    /// # Panics
    ///
    /// Panics if the design's binding is incomplete (synthesis results
    /// never are).
    #[must_use]
    pub fn build(graph: &Cdfg, design: &SynthesizedDesign, library: &ModuleLibrary) -> Datapath {
        let _ = library; // structure is independent of module metrics
        let registers = design.registers(graph);
        let mut steps: Vec<ControlStep> = graph
            .node_ids()
            .map(|op| {
                let instance = design
                    .binding
                    .instance_of(op)
                    .expect("synthesized designs are completely bound");
                ControlStep {
                    start: design.schedule.start(op),
                    delay: design.timing.delay(op),
                    power: design.timing.power(op),
                    op,
                    instance,
                    sources: graph
                        .operands(op)
                        .iter()
                        .map(|&p| registers.register_of(p))
                        .collect(),
                    dest: registers.register_of(op),
                }
            })
            .collect();
        steps.sort_by_key(|s| (s.start, s.op));
        Datapath {
            registers,
            steps,
            latency: design.latency,
            fu_count: design.binding.instances().len(),
        }
    }

    /// The control table, ordered by start cycle.
    #[must_use]
    pub(crate) fn steps(&self) -> &[ControlStep] {
        &self.steps
    }

    /// Number of registers.
    #[must_use]
    pub(crate) fn register_count(&self) -> usize {
        self.registers.count()
    }

    /// Number of functional-unit instances.
    #[must_use]
    pub(crate) fn fu_count(&self) -> usize {
        self.fu_count
    }

    /// Schedule length in cycles.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Power drawn in each cycle, summed over the steps executing in it
    /// (exact quanta, converted to power units).
    pub(crate) fn power_trace(&self) -> Vec<f64> {
        let mut quanta = vec![0u64; self.latency as usize];
        for step in &self.steps {
            for c in step.start..step.start + step.delay {
                quanta[c as usize] += step.power;
            }
        }
        quanta.into_iter().map(pchls_fulib::units).collect()
    }

    /// Steps starting at `cycle`.
    pub(crate) fn steps_at(&self, cycle: u32) -> impl Iterator<Item = &ControlStep> + '_ {
        self.steps.iter().filter(move |s| s.start == cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
    use pchls_fulib::paper_library;

    fn build_hal() -> (Cdfg, Datapath) {
        let g = pchls_cdfg::benchmarks::hal();
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
        (g, dp)
    }

    #[test]
    fn one_step_per_operation() {
        let (g, dp) = build_hal();
        assert_eq!(dp.steps().len(), g.len());
    }

    #[test]
    fn steps_are_sorted_and_within_latency() {
        let (_, dp) = build_hal();
        let mut last = 0;
        for s in dp.steps() {
            assert!(s.start >= last);
            last = s.start;
            assert!(s.start + s.delay <= dp.latency());
        }
    }

    #[test]
    fn consumed_values_have_registers() {
        let (g, dp) = build_hal();
        for s in dp.steps() {
            for (port, src) in s.sources.iter().enumerate() {
                assert!(
                    src.is_some(),
                    "{} port {port} reads an unregistered value",
                    s.op
                );
            }
            let has_consumers = !g.successors(s.op).is_empty();
            assert_eq!(
                s.dest.is_some(),
                has_consumers && g.node(s.op).kind().produces_value()
            );
        }
    }

    #[test]
    fn no_instance_executes_two_steps_at_once() {
        let (_, dp) = build_hal();
        for (i, a) in dp.steps().iter().enumerate() {
            for b in &dp.steps()[i + 1..] {
                if a.instance == b.instance {
                    assert!(
                        a.start + a.delay <= b.start || b.start + b.delay <= a.start,
                        "{} and {} overlap on {}",
                        a.op,
                        b.op,
                        a.instance
                    );
                }
            }
        }
    }
}
