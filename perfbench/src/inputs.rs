//! Seeded input generation: graphs, constraint points, stimuli and
//! single-op edits. Everything here is a pure function of the workload
//! seed, so one seed always yields the same inputs.

use pchls_cdfg::{
    benchmarks, random_dag, write_cdfg, Cdfg, GraphEdit, NodeId, OpKind, RandomDagConfig, Stimulus,
};
use pchls_core::{CompiledGraph, PowerBudget, SynthesisConstraints};

/// SplitMix64: a tiny, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F87B)
    }

    /// A generator for one named stream of the same seed, so adding a
    /// draw to one stream never shifts another.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A random dataflow graph of `ops` operations (the repository's
/// `scale` shape: 6 inputs, 3 outputs, 30% multiplies).
pub fn random_graph(ops: usize, seed: u64) -> Cdfg {
    random_dag(&RandomDagConfig {
        ops,
        inputs: 6,
        outputs: 3,
        mul_permille: 300,
        depth_bias: 2,
        seed,
    })
}

/// The paper graphs plus the larger named kernels.
pub fn named_graphs() -> Vec<Cdfg> {
    vec![
        benchmarks::hal(),
        benchmarks::cosine(),
        benchmarks::elliptic(),
        benchmarks::fir(16),
        benchmarks::ar_filter(),
        benchmarks::fft_butterfly(),
    ]
}

/// One synthesis request as the benchmark sends it: the graph (and its
/// text, which is what the program receives) under one constraint
/// point.
#[derive(Debug, Clone)]
pub struct Point {
    pub graph: Cdfg,
    pub text: String,
    pub constraints: SynthesisConstraints,
}

impl Point {
    pub fn new(graph: Cdfg, constraints: SynthesisConstraints) -> Point {
        let text = write_cdfg(&graph);
        Point {
            graph,
            text,
            constraints,
        }
    }
}

/// The latency bound used throughout: twice the fastest-module
/// critical path, so power-aware stretching has room to work.
pub fn latency_for(compiled: &CompiledGraph) -> u32 {
    compiled.min_latency() * 2
}

/// A constant budget at `frac` of the graph's ASAP peak power.
pub fn constant_budget(compiled: &CompiledGraph, frac: f64) -> PowerBudget {
    PowerBudget::constant(compiled.asap_peak_power() * frac)
}

/// A two-step budget: generous for the first half of the schedule,
/// tighter for the second, so the envelope ledger mode runs.
pub fn stepwise_budget(compiled: &CompiledGraph, latency: u32) -> PowerBudget {
    let peak = compiled.asap_peak_power();
    PowerBudget::steps(vec![(0, peak * 0.65), (latency / 2, peak * 0.45)])
}

/// Seeded input values for every primary input of `graph`.
pub fn stimulus(graph: &Cdfg, rng: &mut Rng) -> Stimulus {
    graph
        .inputs()
        .map(|n| (n.label().to_owned(), rng.below(2001) as i64 - 1000))
        .collect()
}

/// Applies one random single-op edit — rewire an operand, add an
/// operation, or remove an unconsumed one — and returns the edited
/// graph.
pub fn random_edit(graph: &Cdfg, rng: &mut Rng) -> Cdfg {
    let producers: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| graph.node(id).kind().produces_value())
        .collect();
    let n = graph.len();
    loop {
        let mut edit = GraphEdit::new(graph);
        let applied = match rng.below(3) {
            0 => {
                let to = NodeId::new(rng.below(n) as u32);
                let ports = graph.operands(to).len();
                ports > 0 && {
                    let port = rng.below(ports);
                    let from = producers[rng.below(producers.len())];
                    edit.rewire_edge(to, port, from).is_ok()
                }
            }
            1 => {
                let kind = if rng.below(2) == 0 {
                    OpKind::Add
                } else {
                    OpKind::Mul
                };
                let a = producers[rng.below(producers.len())];
                let b = producers[rng.below(producers.len())];
                edit.add_op(kind, &[a, b]).is_ok()
            }
            _ => {
                let start = rng.below(n);
                (0..n).any(|off| {
                    let id = NodeId::new(((start + off) % n) as u32);
                    graph.node(id).kind() != OpKind::Output
                        && graph.node(id).kind() != OpKind::Input
                        && edit.remove_op(id).is_ok()
                })
            }
        };
        if applied {
            if let Ok(edited) = edit.finish() {
                if edited != *graph {
                    return edited;
                }
            }
        }
    }
}
