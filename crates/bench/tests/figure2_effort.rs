//! Pins the kernel's attempt sequence over Figure 2's raw points.
//!
//! The design bytes pinned elsewhere (`figure2_raw`, `golden_trace`)
//! only see each iteration's committed decision. This test sums the
//! [`SynthesisStats`](pchls_core::SynthesisStats) of every feasible raw
//! [`Session::synthesize`](pchls_core::Session::synthesize) answer on
//! the 6 curves × 60-point grid, so a kernel change that attempts
//! candidates in a different order — or a different number of them —
//! moves a total here even when the committed decision stays the same.
//! rand200 rejects no candidate at all, so this is the pin on every
//! attempt past the first. It also pins the pair walk's global probe
//! and prune counters over the same calls: rand200 never ranks a full
//! block, so this is the walk's only pin under a rejected first block.
//! And it pins the placement orders and placements those calls run,
//! bootstrap's included, and the op rows their first-block fills skip
//! and visit.

use pchls_bench::{figure2_curves, figure2_power_grid};
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::paper_library;

/// Feasible raw answers among the 360 points.
const FEASIBLE: usize = 323;
/// Summed over the feasible answers: decisions committed, backtracks,
/// candidates rejected by the feasibility check, and commits proven
/// without re-running the scheduler.
const DECISIONS: usize = 15_086;
const BACKTRACKS: usize = 5;
const REJECTED: usize = 4_723;
const FAST_COMMITS: usize = 7_498;

/// Summed over all 360 calls: pair merges scored exactly (ledger
/// probes) and skipped on their score bound or rank key, as
/// `pchls_kernel_pair_probes_total` and
/// `pchls_kernel_pairs_pruned_total` count them.
const PAIR_PROBES: u64 = 163_431;
const PAIRS_PRUNED: u64 = 2_354_974;
/// Summed over all 360 calls: pairs the walk checked one by one, as
/// `pchls_kernel_pairs_visited_total` counts them.
const PAIRS_VISITED: u64 = 308_510;
/// Summed over all 360 calls: pasap/palap placement orders computed, as
/// `pchls_kernel_placement_orders_total` counts them.
const PLACEMENT_ORDERS: u64 = 3_643;
/// Summed over all 360 calls: pasap and palap placements and the
/// unlocked ops they search a start for, as
/// `pchls_kernel_placements_total{direction="pasap"|"palap"}` and
/// `pchls_kernel_ops_placed_total` count them.
const PASAP_PLACEMENTS: u64 = 15_380;
const PALAP_PLACEMENTS: u64 = 12_191;
const OPS_PLACED: u64 = 805_924;
/// Summed over all 360 calls: op rows the first-block fills skipped
/// whole and re-derived entry by entry, as
/// `pchls_kernel_op_rows_total{outcome="skipped"|"visited"}` count them.
const OP_ROWS_SKIPPED: u64 = 242_764;
const OP_ROWS_VISITED: u64 = 82_825;

/// The global kernel counters `(probes, pruned, pairs visited, orders, pasap
/// placements, palap placements, ops placed, rows skipped, rows
/// visited)`. This binary holds one test, so their deltas count its own
/// calls only.
fn effort_counters() -> [u64; 9] {
    let global = pchls_obs::global();
    [
        "pchls_kernel_pair_probes_total",
        "pchls_kernel_pairs_pruned_total",
        "pchls_kernel_pairs_visited_total",
        "pchls_kernel_placement_orders_total",
        "pchls_kernel_placements_total{direction=\"pasap\"}",
        "pchls_kernel_placements_total{direction=\"palap\"}",
        "pchls_kernel_ops_placed_total",
        "pchls_kernel_op_rows_total{outcome=\"skipped\"}",
        "pchls_kernel_op_rows_total{outcome=\"visited\"}",
    ]
    .map(|name| global.counter(name).get())
}

#[test]
fn figure2_raw_kernel_effort_is_pinned() {
    let before = effort_counters();
    let engine = Engine::new(paper_library());
    let options = SynthesisOptions::default();
    let mut feasible = 0;
    let mut totals = [0usize; 4];
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        for power in figure2_power_grid() {
            let Ok(design) =
                session.synthesize(SynthesisConstraints::new(latency, power), &options)
            else {
                continue;
            };
            feasible += 1;
            let s = design.stats;
            for (total, x) in totals.iter_mut().zip([
                s.decisions,
                s.backtracks,
                s.rejected_candidates,
                s.fast_commits,
            ]) {
                *total += x;
            }
        }
    }
    assert_eq!(
        (feasible, totals),
        (
            FEASIBLE,
            [DECISIONS, BACKTRACKS, REJECTED, FAST_COMMITS]
        ),
        "Figure 2's raw kernel effort (feasible, [decisions, backtracks, rejected, fast commits]) moved"
    );
    let after = effort_counters();
    assert_eq!(
        std::array::from_fn::<_, 9, _>(|i| after[i] - before[i]),
        [
            PAIR_PROBES,
            PAIRS_PRUNED,
            PAIRS_VISITED,
            PLACEMENT_ORDERS,
            PASAP_PLACEMENTS,
            PALAP_PLACEMENTS,
            OPS_PLACED,
            OP_ROWS_SKIPPED,
            OP_ROWS_VISITED
        ],
        "Figure 2's raw kernel effort [probes, pruned, pairs visited, placement orders, \
         pasap placements, \
         palap placements, ops placed, op rows skipped, visited] moved"
    );
}
