//! Differential tests: random batches of real synthesis outcomes
//! round-tripped through the store (write → flush → reopen → lookups
//! and a verify) must match the in-memory results field for field —
//! including points keyed by time-varying budget envelopes, and
//! including byte-identical serialized `SweepPoint` JSON.

use std::path::PathBuf;

use proptest::prelude::*;

use pchls_cdfg::{benchmarks, graph_fingerprint, Cdfg};
use pchls_core::{Engine, PowerBudget, SynthesisConstraints, SynthesisRequest, SynthesisResult};
use pchls_fulib::paper_library;
use pchls_store::{trace_bytes, trace_starts, Store, StoreKey, StoreRecord};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pchls-diff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

prop_compose! {
    /// A generated constraint point: latency bound plus one of the
    /// three budget spellings (constant, step envelope, per-cycle
    /// vector).
    fn constraint_strategy()(
        shape in 0u32..3,
        t in 8u32..28,
        p in 9.0f64..70.0,
        at in 1u32..10,
        frac in 0.3f64..1.0,
    ) -> SynthesisConstraints {
        match shape {
            0 => SynthesisConstraints::new(t, p),
            1 => {
                let step = at.min(t - 1);
                SynthesisConstraints::new(t, PowerBudget::steps(vec![(0, p), (step, p * frac)]))
            }
            _ => {
                // A deterministic jagged per-cycle envelope in [p/2, p].
                let mut x = (u64::from(t) << 32 | u64::from(at)) | 1;
                let bounds: Vec<f64> = (0..t)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        p * (0.5 + (x % 1000) as f64 / 2000.0)
                    })
                    .collect();
                SynthesisConstraints::new(t, PowerBudget::per_cycle(bounds))
            }
        }
    }
}

fn synthesize_batch(graph: &Cdfg, constraints: &[SynthesisConstraints]) -> Vec<SynthesisResult> {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(graph);
    engine
        .session(&compiled)
        .batch(constraints.iter().map(|c| SynthesisRequest::new(c.clone())))
}

fn to_record(graph: &Cdfg, result: &SynthesisResult) -> StoreRecord {
    let key = StoreKey::for_graph(graph, &result.request.constraints);
    let trace = result
        .outcome
        .as_ref()
        .map(|d| trace_bytes(&d.schedule))
        .unwrap_or_default();
    StoreRecord::from_point(key, &result.to_point(graph.name()), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write a random batch, reopen cold, and compare every read path
    /// against the in-memory results.
    #[test]
    fn store_round_trip_matches_in_memory_results(
        constraints in proptest::collection::vec(constraint_strategy(), 1..10),
        chunk in 1usize..5,
    ) {
        let graph = benchmarks::hal();
        let results = synthesize_batch(&graph, &constraints);
        let records: Vec<StoreRecord> =
            results.iter().map(|r| to_record(&graph, r)).collect();

        let dir = temp_dir("roundtrip");
        {
            let mut store = Store::open(&dir).unwrap();
            for batch in records.chunks(chunk) {
                store.append(batch).unwrap();
            }
            store.flush().unwrap();
        }

        let mut store = Store::open(&dir).unwrap();
        prop_assert!(!store.recovered());
        // Duplicate keys within the batch (same spelling drawn twice, or
        // two spellings of one budget) dedup to the last write; synthesis
        // is deterministic so the surviving record is field-identical.
        for (result, record) in results.iter().zip(&records) {
            let got = store.get(&record.key).unwrap().expect("key present");
            prop_assert_eq!(&got, record, "stored record diverged");
            // The reconstructed SweepPoint serializes to the exact bytes
            // of the fresh one.
            let fresh = result.to_point(graph.name());
            prop_assert_eq!(
                serde_json::to_string(&got.to_point(graph.name())).unwrap(),
                serde_json::to_string(&fresh).unwrap()
            );
            // And the schedule trace reconstructs the exact start times.
            if let Ok(design) = &result.outcome {
                let starts = trace_starts(&got.trace).expect("trace decodes");
                prop_assert_eq!(starts.as_slice(), design.schedule.starts());
            } else {
                prop_assert!(got.trace.is_empty());
            }
        }

        store.verify().map_err(|e| format!("verify failed: {e}"))?;
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Budget digests key on semantics: spelling the same envelope as
    /// steps or per-cycle bounds maps to one store record, and the
    /// record answers for both spellings.
    #[test]
    fn equivalent_budget_spellings_share_one_record(
        t in 8u32..24,
        p in 10.0f64..60.0,
        at in 1u32..8,
    ) {
        let graph = benchmarks::hal();
        let step = at.min(t - 1);
        let stepped = SynthesisConstraints::new(
            t,
            PowerBudget::steps(vec![(0, p), (step, p * 0.6)]),
        );
        let spelled: Vec<f64> = (0..t)
            .map(|c| if c < step { p } else { p * 0.6 })
            .collect();
        let per_cycle = SynthesisConstraints::new(t, PowerBudget::per_cycle(spelled));

        let key_a = StoreKey::for_graph(&graph, &stepped);
        let key_b = StoreKey::for_graph(&graph, &per_cycle);
        prop_assert_eq!(key_a, key_b, "semantically equal budgets must share a key");
        prop_assert_eq!(key_a.fingerprint, graph_fingerprint(&graph));

        let results = synthesize_batch(&graph, &[stepped, per_cycle]);
        let dir = temp_dir("spelling");
        let mut store = Store::open(&dir).unwrap();
        store
            .append(&results.iter().map(|r| to_record(&graph, r)).collect::<Vec<_>>())
            .unwrap();
        prop_assert_eq!(store.len(), 1, "one live record for both spellings");
        // Determinism makes the shared record answer both spellings
        // byte-identically.
        let got = store.get(&key_a).unwrap().unwrap();
        for r in &results {
            prop_assert_eq!(
                serde_json::to_string(&got.to_point(graph.name())).unwrap(),
                serde_json::to_string(&r.to_point(graph.name())).unwrap()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Distinct graphs, latency bounds, and budgets all produce distinct
/// keys (the content-addressing axes are independent).
#[test]
fn key_axes_are_independent() {
    let hal = benchmarks::hal();
    let c = SynthesisConstraints::new(17, 25.0);
    let base = StoreKey::for_graph(&hal, &c);
    for other in benchmarks::paper_set() {
        if other.name() != hal.name() {
            assert_ne!(
                StoreKey::for_graph(&other, &c).fingerprint,
                base.fingerprint
            );
        }
    }
    assert_ne!(
        StoreKey::for_graph(&hal, &SynthesisConstraints::new(18, 25.0)),
        base
    );
    assert_ne!(
        StoreKey::for_graph(&hal, &SynthesisConstraints::new(17, 26.0)),
        base
    );
}
