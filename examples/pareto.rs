//! Pareto exploration across both constraints: sweep (T, P<) over a
//! grid, compute the pareto-optimal design points, and show where the
//! portfolio synthesizer beats the plain paper algorithm.
//!
//! Run with `cargo run --release --example pareto`.

use pchls::cdfg::benchmarks::cosine;
use pchls::core::{Engine, SweepPoint, SweepSpec, SynthesisConstraints, SynthesisOptions};
use pchls::fulib::paper_library;

fn main() {
    let graph = cosine();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();

    let grid: Vec<f64> = (1..=6).map(|i| f64::from(i) * 10.0).collect();
    let mut all: Vec<SweepPoint> = Vec::new();
    for t in [12u32, 15, 19, 25] {
        all.extend(
            session
                .sweep(&SweepSpec::power(t, grid.clone()), &opts)
                .into_points(),
        );
    }
    // The front: feasible points no other feasible point matches or
    // beats on all of (T, P<, area).
    let feasible: Vec<&SweepPoint> = all.iter().filter(|p| p.is_feasible()).collect();
    let axes = |p: &SweepPoint| (p.latency_bound, p.power_bound, p.area);
    let dominates = |b: &SweepPoint, a: &SweepPoint| {
        let ((bt, bp, ba), (at, ap, aa)) = (axes(b), axes(a));
        bt <= at && bp <= ap && ba <= aa && (bt, bp, ba) != (at, ap, aa)
    };
    let mut sorted: Vec<&SweepPoint> = feasible
        .iter()
        .copied()
        .filter(|a| !feasible.iter().any(|b| dominates(b, a)))
        .collect();

    println!("pareto front over (T, P<, area) for `{}`:", graph.name());
    println!("{:>4} {:>7} {:>7}", "T", "P<", "area");
    sorted.sort_by(|a, b| {
        a.latency_bound
            .cmp(&b.latency_bound)
            .then(a.power_bound.partial_cmp(&b.power_bound).unwrap())
    });
    for p in &sorted {
        println!(
            "{:>4} {:>7.1} {:>7}",
            p.latency_bound,
            p.power_bound,
            p.area.expect("front points are feasible")
        );
    }

    println!("\nportfolio vs. paper algorithm on the front's corners:");
    for p in sorted.iter().take(3) {
        let c = SynthesisConstraints::new(p.latency_bound, p.power_bound);
        if let Ok(d) = session.synthesize_portfolio(c, &opts) {
            println!(
                "  T={:<3} P<={:<5.1} paper {:>5} -> portfolio {:>5}",
                p.latency_bound,
                p.power_bound,
                p.area.expect("feasible"),
                d.area
            );
        }
    }
}
