//! Byte-diffs the rand200 decision trace against a committed golden.
//!
//! The synthesis kernel promises that every optimization — the
//! unrolled ledger scans, the word-parallel enumeration pipeline — leaves
//! the *decision trace* bit-identical to the naive reference. Within one build, differential tests enforce
//! that promise; **across** builds (and PRs), this test does: the full
//! rand200 design — schedule, timing, binding, effort counters — is
//! serialized to JSON and compared byte-for-byte against
//! `tests/golden/rand200.json`, which is committed. Any word-order
//! divergence, comparator drift, or enumeration reshuffle introduced by
//! a future kernel change shows up as a diff here, not as a silently
//! different Figure 2. The same run with the `pchls-obs` tracer enabled
//! must serialize to the same bytes without dropping a span, and each
//! run must add the same pinned totals to the kernel's effort counters
//! (pair walk, placement orders and placements, rankings, kept tables
//! and op rows).
//!
//! To regenerate the golden after an *intentional* trace change (none
//! are expected — the trace has been stable since PR 2), run:
//!
//! ```sh
//! PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-bench --test golden_trace
//! ```

mod common;

use pchls_bench::rand200_case;
use pchls_core::{Engine, SynthesisOptions};
use pchls_fulib::paper_library;

/// Pair merges one rand200 run scores exactly (ledger probes) and skips
/// on their score bound or rank key, as `pchls_kernel_pair_probes_total`
/// and `pchls_kernel_pairs_pruned_total` count them. Their sum is every
/// (pair, module) slot the walk's entries cover, whatever is pruned.
const RAND200_PAIR_PROBES: u64 = 180;
const RAND200_PAIRS_PRUNED: u64 = 799_454;
const RAND200_PAIR_SLOTS: u64 = 799_634;

/// Pairs one rand200 run's walk checks one by one (probed, pruned one
/// at a time, or skipped because `first` cannot take the entry's
/// module), as `pchls_kernel_pairs_visited_total` counts them; the rest
/// of the pruned slots are cut with their whole entry.
const RAND200_PAIRS_VISITED: u64 = 8_527;

/// Rankings one rand200 run computes, as
/// `pchls_kernel_rankings_total{block="first"|"full"}` count them: one
/// first block per iteration, and no full ranking, since every
/// iteration commits a decision of its first block.
const RAND200_RANKINGS: [u64; 2] = [192, 0];

/// pasap/palap placement orders one rand200 run computes, as
/// `pchls_kernel_placement_orders_total` counts them.
const RAND200_PLACEMENT_ORDERS: u64 = 2;

/// pasap and palap placements one rand200 run makes and the unlocked ops
/// they search a start for, as
/// `pchls_kernel_placements_total{direction="pasap"|"palap"}` and
/// `pchls_kernel_ops_placed_total` count them: `[pasap, palap, ops]`.
const RAND200_PLACEMENTS: [u64; 3] = [139, 192, 37_829];

/// `start0` entries and instance fits one rand200 run keeps and
/// recomputes across its rankings, as
/// `pchls_kernel_table_entries_total{outcome="kept"|"recomputed"}` and
/// `pchls_kernel_instance_fits_total{outcome="kept"|"recomputed"}`
/// count them: `[entries kept, recomputed, fits kept, recomputed]`.
const RAND200_KEPT_TABLES: [u64; 4] = [34_382, 4_156, 5_903, 986];

/// Op rows one rand200 run's first-block fills skip whole and re-derive
/// entry by entry, as `pchls_kernel_op_rows_total{outcome="skipped"|"visited"}`
/// count them: `[skipped, visited]`.
const RAND200_OP_ROWS: [u64; 2] = [17_639, 2_337];

/// The global kernel effort counters `(probes, pruned, pairs visited, orders, pasap
/// placements, palap placements, ops placed, first rankings, full
/// rankings, entries kept, entries recomputed, fits kept, fits
/// recomputed, rows skipped, rows visited)`.
fn effort_counters() -> [u64; 15] {
    let global = pchls_obs::global();
    [
        "pchls_kernel_pair_probes_total",
        "pchls_kernel_pairs_pruned_total",
        "pchls_kernel_pairs_visited_total",
        "pchls_kernel_placement_orders_total",
        "pchls_kernel_placements_total{direction=\"pasap\"}",
        "pchls_kernel_placements_total{direction=\"palap\"}",
        "pchls_kernel_ops_placed_total",
        "pchls_kernel_rankings_total{block=\"first\"}",
        "pchls_kernel_rankings_total{block=\"full\"}",
        "pchls_kernel_table_entries_total{outcome=\"kept\"}",
        "pchls_kernel_table_entries_total{outcome=\"recomputed\"}",
        "pchls_kernel_instance_fits_total{outcome=\"kept\"}",
        "pchls_kernel_instance_fits_total{outcome=\"recomputed\"}",
        "pchls_kernel_op_rows_total{outcome=\"skipped\"}",
        "pchls_kernel_op_rows_total{outcome=\"visited\"}",
    ]
    .map(|name| global.counter(name).get())
}

/// Synthesizes rand200, serializes the design the way the golden
/// stores it, and asserts the run's effort counter increments.
fn rand200_trace() -> String {
    let before = effort_counters();
    let (name, graph, constraints) = rand200_case();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let design = engine
        .session(&compiled)
        .synthesize(constraints, &SynthesisOptions::default())
        .unwrap_or_else(|e| panic!("{name} must be feasible: {e}"));
    let after = effort_counters();
    let [probes, pruned, visited, orders, pasaps, palaps, ops_placed, first, full, entries_kept, entries_recomputed, fits_kept, fits_recomputed, rows_skipped, rows_visited] =
        std::array::from_fn(|i| after[i] - before[i]);
    assert_eq!(
        probes + pruned,
        RAND200_PAIR_SLOTS,
        "rand200's pair walk covers a different set of pair slots"
    );
    assert_eq!(
        (probes, pruned),
        (RAND200_PAIR_PROBES, RAND200_PAIRS_PRUNED),
        "rand200's pair-walk effort (probes, pruned) moved"
    );
    assert_eq!(
        visited, RAND200_PAIRS_VISITED,
        "rand200's pairs checked one by one moved"
    );
    assert_eq!(
        orders, RAND200_PLACEMENT_ORDERS,
        "rand200's placement-order computations moved"
    );
    assert_eq!(
        [pasaps, palaps, ops_placed],
        RAND200_PLACEMENTS,
        "rand200's placements (pasap, palap, ops placed) moved"
    );
    assert_eq!(
        [first, full],
        RAND200_RANKINGS,
        "rand200's (first block, full) ranking counts moved"
    );
    assert_eq!(
        [entries_kept, entries_recomputed, fits_kept, fits_recomputed],
        RAND200_KEPT_TABLES,
        "rand200's kept-table counts (entries kept, recomputed, fits kept, recomputed) moved"
    );
    assert_eq!(
        [rows_skipped, rows_visited],
        RAND200_OP_ROWS,
        "rand200's first-block op rows (skipped, visited) moved"
    );
    let mut trace = serde_json::to_string_pretty(&design).expect("design serializes");
    trace.push('\n');
    trace
}

/// One test function on purpose: the traced leg flips the process-wide
/// tracer, and the counter deltas read process-wide counters, which no
/// parallel test in this binary may touch mid-run.
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

    common::assert_golden("rand200.json", &trace);
}
