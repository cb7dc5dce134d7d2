//! Property-based tests over the CDFG substrate.

use proptest::prelude::*;

use pchls_cdfg::{
    parse_cdfg, random_dag, write_cdfg, CriticalPath, Interpreter, OpKind, RandomDagConfig,
    Stimulus,
};

mod fingerprint_props {
    use super::*;
    use pchls_cdfg::{graph_fingerprint, Cdfg, Edge, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
        for i in (1..v.len()).rev() {
            let j = rng.gen_range(0usize..i + 1);
            v.swap(i, j);
        }
    }

    /// Rebuilds `g` with its edge list shuffled by `seed`: the same
    /// spelling, another edge insertion order.
    fn edges_shuffled(g: &Cdfg, seed: u64) -> Cdfg {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = g.edges().to_vec();
        shuffle(&mut edges, &mut rng);
        let (nodes, _) = parts(g);
        Cdfg::from_parts(g.name(), nodes, edges).expect("edge order preserves validity")
    }

    /// Rebuilds `g` with node insertion order permuted by `seed` (a
    /// relabelling of the `NodeId`s) and the edge list independently
    /// shuffled. The same dataflow, spelled another way.
    fn permuted(g: &Cdfg, seed: u64) -> Cdfg {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = g.len();
        let mut perm: Vec<usize> = (0..n).collect();
        shuffle(&mut perm, &mut rng);
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let nodes: Vec<(OpKind, String)> = perm
            .iter()
            .map(|&old| {
                let nd = &g.nodes()[old];
                (nd.kind(), nd.label().to_owned())
            })
            .collect();
        let mut edges: Vec<Edge> = g
            .edges()
            .iter()
            .map(|e| Edge {
                from: NodeId::new(inv[e.from.index()] as u32),
                to: NodeId::new(inv[e.to.index()] as u32),
                port: e.port,
            })
            .collect();
        shuffle(&mut edges, &mut rng);
        Cdfg::from_parts(g.name(), nodes, edges).expect("permutation preserves validity")
    }

    /// The raw parts of `g`, for rebuilding mutated variants.
    fn parts(g: &Cdfg) -> (Vec<(OpKind, String)>, Vec<Edge>) {
        (
            g.nodes()
                .iter()
                .map(|n| (n.kind(), n.label().to_owned()))
                .collect(),
            g.edges().to_vec(),
        )
    }

    /// A corpus of structurally mutated variants of `g` (each one a
    /// valid graph that differs from `g` under full structural
    /// equality): kind flips, io renames, graph rename, operand-port
    /// swaps.
    fn mutations(g: &Cdfg, seed: u64) -> Vec<Cdfg> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d75_7461_7465);
        let mut out = Vec::new();

        // Graph rename.
        let (nodes, edges) = parts(g);
        out.push(Cdfg::from_parts(format!("{}_m", g.name()), nodes, edges).unwrap());

        // Flip the kind of one random compute op (all compute kinds are
        // binary, so validity is preserved).
        let compute: Vec<usize> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.kind().is_io())
            .map(|(i, _)| i)
            .collect();
        if !compute.is_empty() {
            let victim = compute[rng.gen_range(0usize..compute.len())];
            let (mut nodes, edges) = parts(g);
            let old = nodes[victim].0;
            let new = OpKind::COMPUTE
                .into_iter()
                .find(|&k| k != old)
                .expect("more than one compute kind exists");
            nodes[victim].0 = new;
            out.push(Cdfg::from_parts(g.name(), nodes, edges).unwrap());
        }

        // Rename one io port.
        let io: Vec<usize> = g
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind().is_io())
            .map(|(i, _)| i)
            .collect();
        if !io.is_empty() {
            let victim = io[rng.gen_range(0usize..io.len())];
            let (mut nodes, edges) = parts(g);
            nodes[victim].1 = format!("{}_renamed", nodes[victim].1);
            out.push(Cdfg::from_parts(g.name(), nodes, edges).unwrap());
        }

        // Swap the operand ports of one binary node whose two operands
        // differ (a structural change even for commutative ops: the
        // port assignment is part of the graph).
        if let Some(victim) = g
            .node_ids()
            .find(|&id| g.operands(id).len() == 2 && g.operands(id)[0] != g.operands(id)[1])
        {
            let (nodes, mut edges) = parts(g);
            for e in &mut edges {
                if e.to == victim {
                    e.port = 1 - e.port;
                }
            }
            out.push(Cdfg::from_parts(g.name(), nodes, edges).unwrap());
        }

        out
    }

    proptest! {
        /// The fingerprint is invariant under edge insertion-order
        /// permutation (which full equality is not), tells a relabelled
        /// spelling apart exactly when its text differs, and
        /// distinguishes a corpus of structural mutations.
        #[test]
        fn fingerprint_is_permutation_invariant_and_mutation_sensitive(
            cfg in config(),
            seed in any::<u64>(),
        ) {
            let g = random_dag(&cfg);
            let fp = graph_fingerprint(&g);

            // Same spelling, different edge order: same print.
            let e = edges_shuffled(&g, seed);
            prop_assert_eq!(graph_fingerprint(&e), fp, "edge order changed the fingerprint");

            // Relabelled ids: a new print unless the spelling (the text,
            // which leaves edge order and compute labels out) is the same.
            let p = permuted(&g, seed);
            prop_assert_eq!(
                graph_fingerprint(&p) == fp,
                write_cdfg(&p) == write_cdfg(&g),
                "relabelling and spelling disagree"
            );

            // Structural mutations: different print, no collisions
            // among the corpus either.
            let corpus = mutations(&g, seed);
            for (i, m) in corpus.iter().enumerate() {
                prop_assert!(m != &g, "mutation {i} must differ structurally");
                prop_assert!(
                    graph_fingerprint(m) != fp,
                    "mutation {i} fingerprinted like the original"
                );
            }
            for (i, a) in corpus.iter().enumerate() {
                for (j, b) in corpus.iter().enumerate().skip(i + 1) {
                    if a != b {
                        prop_assert!(
                            graph_fingerprint(a) != graph_fingerprint(b),
                            "mutations {i} and {j} collide"
                        );
                    }
                }
            }
        }

        /// Serialization round trips preserve the fingerprint: the text
        /// spells the same ids, in another edge order.
        #[test]
        fn fingerprint_survives_text_round_trip(cfg in config()) {
            let g = random_dag(&cfg);
            let back = parse_cdfg(&write_cdfg(&g)).expect("round trip");
            prop_assert_eq!(graph_fingerprint(&back), graph_fingerprint(&g));
        }
    }
}

prop_compose! {
    fn config()(
        ops in 1usize..60,
        inputs in 1usize..6,
        outputs in 1usize..4,
        mul_permille in 0u32..1000,
        depth_bias in 0u32..6,
        seed in any::<u64>(),
    ) -> RandomDagConfig {
        RandomDagConfig { ops, inputs, outputs, mul_permille, depth_bias, seed }
    }
}

proptest! {
    /// Every generated DAG is valid and survives a textual round trip.
    #[test]
    fn text_format_round_trips(cfg in config()) {
        let g = random_dag(&cfg);
        let text = write_cdfg(&g);
        let back = parse_cdfg(&text).expect("serialized graph parses");
        prop_assert_eq!(back, g);
    }

    /// Topological order is consistent with every edge.
    #[test]
    fn topological_order_is_valid(cfg in config()) {
        let g = random_dag(&cfg);
        let pos: std::collections::HashMap<_, _> =
            g.topological().iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for e in g.edges() {
            prop_assert!(pos[&e.from] < pos[&e.to]);
        }
    }

    /// The critical path bounds every node's earliest start + delay.
    #[test]
    fn critical_path_is_an_upper_bound(cfg in config()) {
        let g = random_dag(&cfg);
        let delay = |id: pchls_cdfg::NodeId| match g.node(id).kind() {
            OpKind::Mul => 2,
            _ => 1,
        };
        let cp = CriticalPath::new(&g, delay);
        for id in g.node_ids() {
            prop_assert!(cp.earliest_start(id) + delay(id) <= cp.length());
            // Earliest start respects operands.
            for &p in g.operands(id) {
                prop_assert!(cp.earliest_start(id) >= cp.earliest_start(p) + delay(p));
            }
        }
    }

    /// Interpretation is deterministic and total on generated graphs.
    #[test]
    fn interpreter_is_deterministic(cfg in config(), vals in proptest::collection::vec(any::<i64>(), 6)) {
        let g = random_dag(&cfg);
        let stim: Stimulus = g
            .inputs()
            .enumerate()
            .map(|(i, n)| (n.label().to_owned(), vals[i % vals.len()]))
            .collect();
        let a = Interpreter::new(&g).run(&stim).expect("total");
        let b = Interpreter::new(&g).run(&stim).expect("total");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), g.outputs().count());
    }

    /// Comparison outputs are always 0 or 1.
    #[test]
    fn comparisons_are_boolean(cfg in config(), vals in proptest::collection::vec(any::<i64>(), 6)) {
        let g = random_dag(&cfg);
        let stim: Stimulus = g
            .inputs()
            .enumerate()
            .map(|(i, n)| (n.label().to_owned(), vals[i % vals.len()]))
            .collect();
        let all = Interpreter::new(&g).run_all(&stim).expect("total");
        for id in g.node_ids() {
            if g.node(id).kind() == OpKind::Comp {
                prop_assert!(all[&id] == 0 || all[&id] == 1);
            }
        }
    }
}

mod optimize_props {
    use super::*;
    use pchls_cdfg::optimize;

    proptest! {
        /// Optimization preserves semantics on arbitrary random DAGs.
        #[test]
        fn optimize_preserves_semantics(
            cfg in config(),
            vals in proptest::collection::vec(any::<i64>(), 6),
        ) {
            let g = random_dag(&cfg);
            let (o, stats) = optimize(&g);
            prop_assert_eq!(o.len() + stats.merged + stats.eliminated, g.len());
            let stim: Stimulus = g
                .inputs()
                .enumerate()
                .map(|(i, n)| (n.label().to_owned(), vals[i % vals.len()]))
                .collect();
            let before = Interpreter::new(&g).run(&stim).expect("total");
            let after = Interpreter::new(&o).run(&stim).expect("total");
            prop_assert_eq!(before, after);
        }

        /// Optimization is idempotent on arbitrary random DAGs.
        #[test]
        fn optimize_is_idempotent(cfg in config()) {
            let g = random_dag(&cfg);
            let (once, _) = optimize(&g);
            let (twice, stats) = optimize(&once);
            prop_assert_eq!(stats.merged, 0);
            prop_assert_eq!(stats.eliminated, 0);
            prop_assert_eq!(once, twice);
        }
    }
}

mod nodeset_props {
    use super::*;
    use pchls_cdfg::{NodeId, NodeSet};

    proptest! {
        /// `NodeSet` agrees with a `Vec<bool>` reference under arbitrary
        /// insert/remove sequences, including across word boundaries.
        #[test]
        fn nodeset_matches_bool_vec(
            len in 1usize..200,
            ops in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..256),
        ) {
            let mut set = NodeSet::empty(len);
            let mut reference = vec![false; len];
            for (insert, raw) in ops {
                let i = (raw % len as u64) as usize;
                if insert {
                    set.insert(NodeId::new(i as u32));
                    reference[i] = true;
                } else {
                    set.remove(NodeId::new(i as u32));
                    reference[i] = false;
                }
            }
            prop_assert_eq!(set.count(), reference.iter().filter(|&&b| b).count());
            for (i, &bit) in reference.iter().enumerate() {
                prop_assert_eq!(set.contains(NodeId::new(i as u32)), bit);
            }
            let iterated: Vec<usize> = set.iter().map(|id| id.index()).collect();
            let expected: Vec<usize> =
                (0..len).filter(|&i| reference[i]).collect();
            prop_assert_eq!(iterated, expected);
        }

        /// `full` then `clear`/`fill` keep the trailing-bits-zero invariant:
        /// whole-word counts never see phantom members past `len`.
        #[test]
        fn nodeset_full_has_exact_popcount(len in 1usize..300) {
            let mut set = NodeSet::full(len);
            prop_assert_eq!(set.count(), len);
            set.clear();
            prop_assert_eq!(set.count(), 0);
            set.fill();
            prop_assert_eq!(set.count(), len);
            prop_assert_eq!(
                set.words().iter().map(|w| w.count_ones() as usize).sum::<usize>(),
                len
            );
        }
    }
}
