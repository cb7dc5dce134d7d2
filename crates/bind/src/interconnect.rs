//! Multiplexer fan-in estimation for a bound datapath.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use pchls_cdfg::Cdfg;

use crate::binding::Binding;
use crate::regalloc::RegisterAllocation;

/// A steering-logic estimate for a bound datapath.
///
/// Every functional-unit input port needs a multiplexer selecting among
/// the registers that ever feed it; every register needs one selecting
/// among the instances that ever write it. The estimate counts *extra*
/// mux inputs (fan-in beyond one) — a 1-source connection is a wire and
/// costs nothing. This is the "least interconnect" tie-breaking cost of
/// the paper and of Jou et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterconnectEstimate {
    /// Extra multiplexer inputs in front of functional-unit operand ports.
    pub fu_mux_inputs: usize,
    /// Extra multiplexer inputs in front of register write ports.
    pub reg_mux_inputs: usize,
}

impl InterconnectEstimate {
    /// Computes the estimate for `binding` + `registers` over `graph`.
    ///
    /// Unbound operations contribute nothing (useful mid-synthesis).
    #[must_use]
    pub fn of(
        graph: &Cdfg,
        binding: &Binding,
        registers: &RegisterAllocation,
    ) -> InterconnectEstimate {
        // FU side: distinct register sources per (instance, port).
        let mut fu_mux_inputs = 0;
        for inst_id in binding.instance_ids() {
            let inst = binding.instance(inst_id);
            let max_ports = inst
                .ops()
                .iter()
                .map(|&op| graph.operands(op).len())
                .max()
                .unwrap_or(0);
            for port in 0..max_ports {
                let sources: BTreeSet<usize> = inst
                    .ops()
                    .iter()
                    .filter_map(|&op| graph.operands(op).get(port))
                    .filter_map(|&src| registers.register_of(src))
                    .collect();
                fu_mux_inputs += sources.len().saturating_sub(1);
            }
        }
        // Register side: distinct writer instances per register.
        let mut reg_mux_inputs = 0;
        for reg in registers.registers() {
            let writers: BTreeSet<usize> = reg
                .iter()
                .filter_map(|lt| binding.instance_of(lt.producer))
                .map(|i| i.index())
                .collect();
            reg_mux_inputs += writers.len().saturating_sub(1);
        }
        InterconnectEstimate {
            fu_mux_inputs,
            reg_mux_inputs,
        }
    }

    /// Total extra multiplexer inputs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.fu_mux_inputs + self.reg_mux_inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::bind_schedule;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::{asap, TimingMap};

    #[test]
    fn dedicated_units_need_no_fu_muxes() {
        // One instance per op = every port has exactly one source.
        let g = benchmarks::hal();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let mut binding = crate::Binding::new(g.len());
        for n in g.nodes() {
            let m = lib.select(n.kind(), SelectionPolicy::Fastest).unwrap();
            let inst = binding.new_instance(m);
            binding.bind(n.id(), inst);
        }
        let regs = RegisterAllocation::left_edge(&g, &s, &t);
        let est = InterconnectEstimate::of(&g, &binding, &regs);
        assert_eq!(est.fu_mux_inputs, 0);
    }

    #[test]
    fn shared_units_cost_muxes() {
        let g = benchmarks::elliptic();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let shared = bind_schedule(&g, &lib, &s, &t).unwrap();
        let regs = RegisterAllocation::left_edge(&g, &s, &t);
        let est = InterconnectEstimate::of(&g, &shared, &regs);
        assert!(est.fu_mux_inputs > 0, "sharing must introduce muxes");
        assert!(est.total() >= est.fu_mux_inputs);
    }

    #[test]
    fn estimate_is_deterministic() {
        let g = benchmarks::cosine();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        let regs = RegisterAllocation::left_edge(&g, &s, &t);
        let a = InterconnectEstimate::of(&g, &b, &regs);
        let c = InterconnectEstimate::of(&g, &b, &regs);
        assert_eq!(a, c);
    }
}
