//! Design-space exploration: sweep the power constraint for a DSP kernel
//! at several latency budgets and print the area trade-off curves — the
//! experiment behind Figure 2 of the paper, here on a 16-tap FIR filter
//! that is *not* part of the paper's benchmark set.
//!
//! Run with `cargo run --release --example design_space`.

use pchls::cdfg::benchmarks::fir;
use pchls::core::{Engine, SweepSpec, SynthesisOptions};
use pchls::fulib::paper_library;

fn main() {
    let graph = fir(16);
    // One engine, one compile — all four latency curves share the same
    // compiled artifacts.
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let session = engine.session(&compiled);
    let grid = session.auto_power_grid(12);

    println!("power/area trade-off for `{}`", graph.name());
    println!("(columns: one latency constraint each; cells: area or `-` if infeasible)\n");

    let latencies = [10u32, 14, 20, 32];
    let curves: Vec<_> = latencies
        .iter()
        .map(|&t| {
            session
                .sweep(
                    &SweepSpec::power(t, grid.clone()),
                    &SynthesisOptions::default(),
                )
                .into_points()
        })
        .collect();

    print!("{:>8} ", "P<");
    for t in latencies {
        print!("{:>8} ", format!("T={t}"));
    }
    println!();
    for (i, p) in grid.iter().enumerate() {
        print!("{p:>8.1} ");
        for curve in &curves {
            match curve[i].area {
                Some(a) => print!("{a:>8} "),
                None => print!("{:>8} ", "-"),
            }
        }
        println!();
    }

    println!("\nreading the table:");
    println!(" * down a column: a larger power budget never costs area;");
    println!(" * across a row: relaxing the deadline shrinks the datapath;");
    println!(" * the `-` corner is the infeasible region of the constraint space.");
}
