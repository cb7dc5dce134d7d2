//! Property-based tests over binding, register allocation and
//! interconnect estimation on random DAGs.

use proptest::prelude::*;

use pchls_bind::{bind_schedule, CompatibilityGraph, InterconnectEstimate, RegisterAllocation};
use pchls_cdfg::{random_dag, RandomDagConfig};
use pchls_fulib::{paper_library, SelectionPolicy};
use pchls_sched::{alap, asap, TimingMap};

prop_compose! {
    fn config()(
        ops in 2usize..40,
        inputs in 1usize..5,
        outputs in 1usize..3,
        mul_permille in 0u32..800,
        depth_bias in 0u32..5,
        seed in any::<u64>(),
    ) -> RandomDagConfig {
        RandomDagConfig { ops, inputs, outputs, mul_permille, depth_bias, seed }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binding a fixed schedule always yields a complete, valid binding
    /// that never costs more area than one unit per operation.
    #[test]
    fn bind_schedule_is_valid_and_never_worse_than_dedicated(
        cfg in config(),
        policy_min_area in any::<bool>(),
    ) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let policy = if policy_min_area { SelectionPolicy::MinArea } else { SelectionPolicy::Fastest };
        let t = TimingMap::from_policy(&g, &lib, policy);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        prop_assert!(b.is_complete());
        let dedicated: u64 = g
            .nodes()
            .iter()
            .map(|n| u64::from(lib.module(lib.select(n.kind(), policy).unwrap()).area()))
            .sum();
        prop_assert!(b.area(&lib) <= dedicated);
    }

    /// Compatibility is symmetric, irreflexive, and consistent with the
    /// fixed-schedule interval rule.
    #[test]
    fn compatibility_is_sound(cfg in config()) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let c = CompatibilityGraph::build(&g, &lib, &s, &t);
        for a in g.node_ids() {
            prop_assert!(!c.compatible(a, a));
            for b in g.node_ids() {
                prop_assert_eq!(c.compatible(a, b), c.compatible(b, a));
                if c.compatible(a, b) {
                    // Fixed-schedule compatibility requires disjoint
                    // execution intervals.
                    let disjoint = s.finish(a, &t) <= s.start(b) || s.finish(b, &t) <= s.start(a);
                    prop_assert!(disjoint, "{a} and {b} compatible but overlap");
                }
            }
        }
    }

    /// Left-edge register allocation is optimal (count = max live) and
    /// never shares a register between overlapping lifetimes, under both
    /// tight and slack schedules.
    #[test]
    fn left_edge_is_optimal_and_sound(cfg in config(), slack in 0u32..10) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let early = asap(&g, &t);
        let lat = early.latency(&t) + slack;
        let late = alap(&g, &t, lat).unwrap();
        for s in [early, late] {
            let ra = RegisterAllocation::left_edge(&g, &s, &t);
            prop_assert_eq!(ra.count(), ra.max_live());
            for reg in ra.registers() {
                for (i, a) in reg.iter().enumerate() {
                    for b in &reg[i + 1..] {
                        prop_assert!(!a.overlaps(b));
                    }
                }
            }
        }
    }

    /// Interconnect estimation: dedicated bindings need no FU muxes; the
    /// estimate is always finite and consistent.
    #[test]
    fn interconnect_estimate_is_sane(cfg in config()) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let mut dedicated = pchls_bind::Binding::new(g.len());
        for n in g.nodes() {
            let m = lib.select(n.kind(), SelectionPolicy::Fastest).unwrap();
            let inst = dedicated.new_instance(m);
            dedicated.bind(n.id(), inst);
        }
        let regs = RegisterAllocation::left_edge(&g, &s, &t);
        let est = InterconnectEstimate::of(&g, &dedicated, &regs);
        prop_assert_eq!(est.fu_mux_inputs, 0);
        prop_assert_eq!(est.total(), est.fu_mux_inputs + est.reg_mux_inputs);
    }
}
