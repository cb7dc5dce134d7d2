//! Quickstart: synthesize the HAL differential-equation benchmark under
//! a latency and a per-cycle power constraint, then inspect the result.
//!
//! Run with `cargo run --example quickstart`.

use pchls::cdfg::benchmarks::hal;
use pchls::core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls::fulib::paper_library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = hal();

    // The engine owns the module library and its indexes; compiling the
    // graph computes every per-graph analysis once. Reuse both for as
    // many constraint points as needed.
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let library = engine.library();

    // The paper's constraints: finish within 17 cycles, never draw more
    // than 25 power units in any single cycle.
    let constraints = SynthesisConstraints::new(17, 25.0);
    let design = engine
        .session(&compiled)
        .synthesize(constraints.clone(), &SynthesisOptions::default())?;

    println!("synthesized `{}`: {}", graph.name(), design.summary());
    println!("\nfunctional units:");
    for (i, inst) in design.binding.instances().iter().enumerate() {
        let m = library.module(inst.module());
        println!(
            "  fu{i}: {:<9} area {:>4}  ops {:?}",
            m.name(),
            m.area(),
            inst.ops()
        );
    }

    println!(
        "\nper-cycle power profile (bound {}):",
        constraints.max_power()
    );
    print!(
        "{}",
        design
            .power_profile()
            .to_ascii_under(40, &constraints.budget)
    );

    // Every invariant can be re-checked at any time.
    design.validate(&graph, library)?;
    println!("\nall invariants hold: schedule, power, binding");
    Ok(())
}
