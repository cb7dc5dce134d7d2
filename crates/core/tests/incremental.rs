//! Differential tests for the incremental re-synthesis path: replaying
//! a recorded base run over a cold compile of the edited graph must
//! reproduce a cold synthesis of that graph byte-for-byte — design,
//! decision trace and effort counters — across random graphs × random
//! single-op edits, on both sides of the fallback threshold.

use pchls_cdfg::{diff, random_dag, Cdfg, GraphEdit, NodeId, OpKind, RandomDagConfig};
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::paper_library;

fn graph(ops: usize, seed: u64) -> Cdfg {
    random_dag(&RandomDagConfig {
        ops,
        seed,
        ..RandomDagConfig::default()
    })
}

/// A deterministic xorshift so edits vary with the seed without pulling
/// a test-only RNG dependency into the crate.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Applies one random structural edit (rewire an operand, add an op, or
/// remove an unconsumed node) and returns the edited graph.
fn random_edit(graph: &Cdfg, seed: u64) -> Cdfg {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut edit = GraphEdit::new(graph);
    let n = graph.len() as u64;
    let producers: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| graph.node(id).kind().produces_value())
        .collect();
    let pick = |state: &mut u64| producers[(next(state) % producers.len() as u64) as usize];
    for attempt in 0..64 {
        let applied = match next(&mut state) % 3 {
            0 => {
                // Rewire one operand port of a random consumer.
                let id = NodeId::new((next(&mut state) % n) as u32);
                let ports = graph.operands(id).len();
                if ports == 0 {
                    false
                } else {
                    let port = (next(&mut state) % ports as u64) as usize;
                    let src = pick(&mut state);
                    edit.rewire_edge(id, port, src).is_ok()
                }
            }
            1 => {
                let kind = if next(&mut state).is_multiple_of(2) {
                    OpKind::Add
                } else {
                    OpKind::Mul
                };
                let (a, b) = (pick(&mut state), pick(&mut state));
                edit.add_op(kind, &[a, b]).is_ok()
            }
            _ => {
                // Remove any node nothing consumes (an output, usually).
                let start = next(&mut state) % n;
                (0..n).any(|off| {
                    let id = NodeId::new(((start + off) % n) as u32);
                    edit.remove_op(id).is_ok()
                })
            }
        };
        if applied {
            return edit.finish().expect("validated edits re-finish");
        }
        assert!(attempt < 63, "no applicable edit found for seed {seed}");
    }
    unreachable!()
}

/// Generous constraints every edited variant stays feasible under: the
/// replay reuses the recorded constraint point, so base and edited runs
/// must share it.
fn loose_constraints(compiled_min_latency: u32) -> SynthesisConstraints {
    SynthesisConstraints::new(compiled_min_latency * 3 + 8, 1e6)
}

#[test]
fn recording_does_not_perturb_synthesis() {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph(45, 7));
    let session = engine.session(&compiled);
    let constraints = loose_constraints(compiled.min_latency());
    let options = SynthesisOptions::default();
    let plain = session.synthesize(constraints.clone(), &options).unwrap();
    let (recorded, memo) = session
        .synthesize_recorded(constraints, &options)
        .expect("same feasibility as the plain run");
    assert_eq!(plain, recorded);
    assert_eq!(memo.ops(), compiled.graph().len());
    assert!(memo.iterations() > 0);
}

#[test]
fn resynthesize_matches_fresh_synthesis_over_random_edits() {
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let mut incremental_runs = 0usize;
    for gseed in [5u64, 17, 41] {
        let base = graph(40, gseed);
        let compiled = engine.compile(&base);
        let constraints = loose_constraints(compiled.min_latency());
        let (_, memo) = engine
            .session(&compiled)
            .synthesize_recorded(constraints, &options)
            .expect("loose constraints are feasible");
        for eseed in 1..=8u64 {
            let edited = random_edit(&base, gseed.wrapping_mul(77) + eseed);
            let delta = diff(&base, &edited);
            let recompiled = engine.try_compile(&edited).expect("covered");
            let session = engine.session(&recompiled);
            let cold = session
                .synthesize(memo.constraints().clone(), memo.options())
                .expect("loose constraints stay feasible after one edit");
            let re = session
                .resynthesize(&memo, &delta)
                .expect("replay matches cold feasibility");
            assert_eq!(
                re.design, cold,
                "replayed design diverged (graph {gseed}, edit {eseed}, \
                 incremental={}, cone={})",
                re.incremental, re.cone_size
            );
            incremental_runs += usize::from(re.incremental);
        }
    }
    assert!(
        incremental_runs > 0,
        "no edit exercised the incremental path"
    );
}

#[test]
fn identity_edit_replays_incrementally() {
    let engine = Engine::new(paper_library());
    let base = graph(35, 23);
    let compiled = engine.compile(&base);
    let session = engine.session(&compiled);
    let constraints = loose_constraints(compiled.min_latency());
    let options = SynthesisOptions::default();
    let (design, memo) = session
        .synthesize_recorded(constraints, &options)
        .expect("feasible");
    let delta = diff(&base, &base);
    assert!(delta.is_identity());
    let re = session.resynthesize(&memo, &delta).expect("feasible");
    assert!(re.incremental);
    assert_eq!(re.cone_size, 0);
    assert_eq!(re.design, design);
}

#[test]
fn fallback_threshold_is_a_sharp_boundary() {
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let base = graph(40, 59);
    let compiled = engine.compile(&base);
    let constraints = loose_constraints(compiled.min_latency());
    let (_, memo) = engine
        .session(&compiled)
        .synthesize_recorded(constraints, &options)
        .expect("feasible");
    let edited = random_edit(&base, 4242);
    let delta = diff(&base, &edited);
    let recompiled = engine.try_compile(&edited).expect("covered");
    let cone = delta.cone_size();
    assert!(cone > 0, "the edit must touch something");
    let session = engine.session(&recompiled);
    let cold = session
        .synthesize(memo.constraints().clone(), memo.options())
        .expect("feasible");

    // Cone exactly at the limit: incremental.
    let at = session
        .resynthesize_with_limit(&memo, &delta, cone)
        .expect("feasible");
    assert!(at.incremental);
    assert_eq!(at.design, cold);

    // One below the cone: full-recompute fallback, same design.
    let over = session
        .resynthesize_with_limit(&memo, &delta, cone - 1)
        .expect("feasible");
    assert!(!over.incremental);
    assert_eq!(over.design, cold);
}

#[test]
fn shape_mismatch_falls_back_to_cold_synthesis() {
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let base = graph(30, 71);
    let compiled = engine.compile(&base);
    let constraints = loose_constraints(compiled.min_latency());
    let (_, memo) = engine
        .session(&compiled)
        .synthesize_recorded(constraints, &options)
        .expect("feasible");
    // Two stacked node-adding edits: the delta is diffed against the
    // *first* edit (one node longer than the recorded graph), then
    // replayed against the *second* — its base length cannot match the
    // memo, so the incremental gate must refuse.
    let inputs: Vec<NodeId> = base
        .node_ids()
        .filter(|&id| base.node(id).kind().produces_value())
        .take(2)
        .collect();
    let mut e = GraphEdit::new(&base);
    e.add_op(OpKind::Add, &[inputs[0], inputs[1]]).unwrap();
    let once = e.finish().unwrap();
    let mut e = GraphEdit::new(&once);
    e.add_op(OpKind::Mul, &[inputs[0], inputs[1]]).unwrap();
    let twice = e.finish().unwrap();
    let delta = diff(&once, &twice);
    let recompiled = engine.try_compile(&twice).expect("covered");
    let session = engine.session(&recompiled);
    let cold = session
        .synthesize(memo.constraints().clone(), memo.options())
        .expect("feasible");
    let re = session.resynthesize(&memo, &delta).expect("feasible");
    assert!(!re.incremental, "mismatched delta must not replay");
    assert_eq!(re.design, cold);
}
