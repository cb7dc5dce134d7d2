//! Extension experiment: battery lifetime of power-constrained designs
//! versus power-oblivious ones, on the three battery models — the
//! end-to-end demonstration of the paper's motivation.

use pchls_battery::{
    compare_profiles, BatteryModel, IdealBattery, PeukertBattery, RateCapacityBattery,
};
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::{paper_library, SelectionPolicy};

fn main() {
    let engine = Engine::new(paper_library());
    // (benchmark, T for both designs, P< for the constrained design)
    let cases = [
        (pchls_cdfg::benchmarks::hal(), 17u32, 12.0),
        (pchls_cdfg::benchmarks::cosine(), 19, 25.0),
        (pchls_cdfg::benchmarks::elliptic(), 22, 20.0),
    ];
    println!("Battery lifetime: power-oblivious vs power-constrained designs");
    println!(
        "(lifetime in total clock cycles until battery cutoff; gain = constrained/oblivious)\n"
    );
    for (g, t, p) in cases {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let oblivious = session
            .unconstrained(t, SelectionPolicy::Fastest)
            .expect("latency is feasible");
        let constrained = session
            .synthesize(
                SynthesisConstraints::new(t, p),
                &SynthesisOptions::default(),
            )
            .expect("constraints are feasible");
        let base = oblivious.power_profile();
        let flat = constrained.power_profile();
        println!(
            "{:<9} T={t:<3} P<={p:<5}  peak {:.1} -> {:.1}",
            g.name(),
            base.peak(),
            flat.peak()
        );
        let (base, flat) = (base.per_cycle(), flat.per_cycle());
        let capacity = 1_000_000.0;
        // The constrained design may also use *less energy* (serial
        // multipliers are more energy-efficient); the ideal battery
        // isolates that effect, and dividing it out leaves the gain
        // attributable purely to the flattened profile shape.
        let ideal = IdealBattery::new(capacity);
        let ideal_gain = compare_profiles(&ideal, &base, &flat).extension;
        let models: Vec<Box<dyn BatteryModel>> = vec![
            Box::new(ideal),
            Box::new(PeukertBattery::low_quality(capacity)),
            Box::new(RateCapacityBattery::low_quality(capacity)),
        ];
        for m in &models {
            let cmp = compare_profiles(m.as_ref(), &base, &flat);
            println!(
                "  {:<14} lifetime {:>12} -> {:>12} cycles   gain {:.2}x  (shape-only {:.2}x)",
                cmp.model,
                cmp.baseline.total_cycles(base.len()),
                cmp.flattened.total_cycles(flat.len()),
                cmp.extension,
                cmp.extension / ideal_gain
            );
        }
        println!();
    }
}
