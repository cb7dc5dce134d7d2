//! Byte-diffs the rand200 decision trace against a committed golden.
//!
//! The synthesis kernel promises that every optimization — the
//! segment-tree ledger, the word-parallel enumeration pipeline — leaves
//! the *decision trace* bit-identical to the naive reference. Within one build, differential tests enforce
//! that promise; **across** builds (and PRs), this test does: the full
//! rand200 design — schedule, timing, binding, effort counters — is
//! serialized to JSON and compared byte-for-byte against
//! `tests/golden/rand200.json`, which is committed. Any word-order
//! divergence, comparator drift, or enumeration reshuffle introduced by
//! a future kernel change shows up as a diff here, not as a silently
//! different Figure 2. The same run with the `pchls-obs` tracer enabled
//! must serialize to the same bytes without dropping a span.
//!
//! To regenerate the golden after an *intentional* trace change (none
//! are expected — the trace has been stable since PR 2), run:
//!
//! ```sh
//! PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-bench --test golden_trace
//! ```

use std::path::PathBuf;

use pchls_bench::rand200_case;
use pchls_core::{Engine, SynthesisOptions};
use pchls_fulib::paper_library;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("rand200.json")
}

/// Synthesizes rand200 and serializes the design the way the golden
/// stores it.
fn rand200_trace() -> String {
    let (name, graph, constraints) = rand200_case();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let design = engine
        .session(&compiled)
        .synthesize(constraints, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{name} must be feasible: {e}"));
    let mut trace = serde_json::to_string_pretty(&design).expect("design serializes");
    trace.push('\n');
    trace
}

/// One test function on purpose: the traced leg flips the process-wide
/// tracer, which no parallel test in this binary may observe mid-run.
#[test]
fn rand200_decision_trace_matches_committed_golden() {
    pchls_obs::set_enabled(false);
    let trace = rand200_trace();

    // Spans must never perturb the decision trace, and one rand200 run
    // must fit the per-thread ring without dropping events.
    pchls_obs::reset();
    pchls_obs::set_enabled(true);
    let traced = rand200_trace();
    pchls_obs::set_enabled(false);
    let snapshot = pchls_obs::snapshot();
    assert!(
        !snapshot.events.is_empty(),
        "the traced run recorded no spans"
    );
    assert_eq!(snapshot.dropped, 0, "trace ring buffers overflowed");
    assert_eq!(
        traced, trace,
        "tracing perturbed the rand200 decision trace"
    );

    let path = golden_path();
    if std::env::var_os("PCHLS_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &trace).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()));
    assert_eq!(
        trace, golden,
        "rand200 decision trace diverged from the committed golden; \
         if (and only if) the change is intentional, re-bless with \
         PCHLS_BLESS_GOLDEN=1"
    );
}
