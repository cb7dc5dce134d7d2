//! Pins the raw kernel's answer on every Figure 2 point.
//!
//! `results/figure2.json` publishes the sweep *envelope*: at each power
//! bound, the best design found at any bound ≤ P. That hides what
//! [`Session::synthesize`](pchls_core::Session::synthesize) — the answer
//! CLI `synth` and serve give — returns at the same point. This test
//! records both areas for every (curve, P) of the 6 curves × 60-point
//! grid in `tests/golden/figure2_raw.json`, byte for byte, and pins how
//! many feasible points the envelope carries from a tighter bound.
//!
//! To regenerate the golden after an *intentional* kernel change, run:
//!
//! ```sh
//! PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-bench --test figure2_raw
//! ```

mod common;

use std::fmt::Write as _;

use pchls_bench::{figure2_curves, figure2_power_grid, run_curve};
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::paper_library;

/// Feasible Figure 2 points (envelope area present).
const FEASIBLE_POINTS: usize = 323;
/// Feasible points whose published area is carried from a tighter power
/// bound: the raw answer at the point itself is larger, or infeasible.
const CARRIED_POINTS: usize = 200;

fn area(a: Option<u64>) -> String {
    a.map_or_else(|| "null".to_owned(), |a| a.to_string())
}

#[test]
fn raw_figure2_areas_match_committed_golden() {
    let library = paper_library();
    let engine = Engine::new(library.clone());
    let (mut feasible, mut carried) = (0, 0);
    let mut json = String::from("[\n");
    for (graph, latency) in figure2_curves() {
        let compiled = engine.compile(&graph);
        let session = engine.session(&compiled);
        let published = run_curve(&graph, &library, latency);
        for (power, point) in figure2_power_grid().into_iter().zip(&published) {
            assert_eq!(point.power_bound, power);
            let raw = session
                .synthesize(
                    SynthesisConstraints::new(latency, power),
                    &SynthesisOptions::default(),
                )
                .ok()
                .map(|d| d.area);
            if let Some(env) = point.area {
                feasible += 1;
                if raw.is_none_or(|r| r > env) {
                    carried += 1;
                }
            }
            if json.len() > 2 {
                json.push_str(",\n");
            }
            write!(
                json,
                "  {{\"benchmark\": \"{}\", \"latency\": {latency}, \"power\": {power}, \
                 \"raw_area\": {}, \"envelope_area\": {}}}",
                graph.name(),
                area(raw),
                area(point.area)
            )
            .expect("write to String");
        }
    }
    json.push_str("\n]\n");

    common::assert_golden("figure2_raw.json", &json);
    assert_eq!(
        (carried, feasible),
        (CARRIED_POINTS, FEASIBLE_POINTS),
        "the envelope's carried-point count moved"
    );
}
