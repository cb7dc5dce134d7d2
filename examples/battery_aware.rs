//! Battery-aware synthesis: quantify how much battery lifetime a
//! power-constrained design buys over a power-oblivious one — the
//! end-to-end version of the paper's motivation (its Figure 1).
//!
//! Run with `cargo run --release --example battery_aware`.

use pchls::battery::{compare_profiles, BatteryModel, PeukertBattery, RateCapacityBattery};
use pchls::cdfg::benchmarks::elliptic;
use pchls::core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls::fulib::{paper_library, SelectionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = elliptic();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&graph);
    let session = engine.session(&compiled);
    let latency = 24;

    // Power-oblivious design: fastest modules, ASAP schedule.
    let oblivious = session.unconstrained(latency, SelectionPolicy::Fastest)?;
    let spiky = oblivious.power_profile();

    // Power-constrained design at the same latency.
    let constrained = session.synthesize(
        SynthesisConstraints::new(latency, 16.0),
        &SynthesisOptions::default(),
    )?;
    let flat = constrained.power_profile();

    println!("`{}` at T={latency} cycles:", graph.name());
    println!(
        "  power-oblivious: area {:>5}, peak {:>5.1}, peak/avg {:.2}",
        oblivious.area,
        spiky.peak(),
        spiky.peak_to_average()
    );
    println!(
        "  power-aware:     area {:>5}, peak {:>5.1}, peak/avg {:.2}",
        constrained.area,
        flat.peak(),
        flat.peak_to_average()
    );

    let (spiky, flat) = (spiky.per_cycle(), flat.per_cycle());
    let capacity = 2_000_000.0;
    let cells: [Box<dyn BatteryModel>; 3] = [
        Box::new(PeukertBattery::high_quality(capacity)),
        Box::new(PeukertBattery::low_quality(capacity)),
        Box::new(RateCapacityBattery::low_quality(capacity)),
    ];
    println!("\nbattery lifetime (total clock cycles until cutoff):");
    for cell in &cells {
        let cmp = compare_profiles(cell.as_ref(), &spiky, &flat);
        println!(
            "  {:<14} {:>12} -> {:>12}   extension {:.1}%",
            cmp.model,
            cmp.baseline.total_cycles(spiky.len()),
            cmp.flattened.total_cycles(flat.len()),
            (cmp.extension - 1.0) * 100.0
        );
    }
    println!("\nlow-quality cells benefit most from flattening, matching the");
    println!("20-30% lifetime extensions the paper cites for battery-aware design.");
    Ok(())
}
