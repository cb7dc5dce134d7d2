//! The paper's qualitative claims against the two-step baseline
//! (refs [1, 2]): two-phase methods can fail the power constraint where
//! the simultaneous algorithm succeeds, and the simultaneous algorithm
//! exploits module selection that two-phase flows cannot.

use pchls::cdfg::benchmarks;
use pchls::core::{
    BaselineDesign, Engine, SynthesisConstraints, SynthesisError, SynthesisOptions,
    SynthesizedDesign,
};
use pchls::fulib::{paper_library, SelectionPolicy};

/// One-shot combined synthesis through the session API.
fn synth(
    g: &pchls::cdfg::Cdfg,
    c: SynthesisConstraints,
) -> Result<SynthesizedDesign, SynthesisError> {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(g);
    engine
        .session(&compiled)
        .synthesize(c, &SynthesisOptions::default())
}

/// The two-step baseline with fastest modules, through the session API.
fn two_step(g: &pchls::cdfg::Cdfg, c: SynthesisConstraints) -> BaselineDesign {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(g);
    engine
        .session(&compiled)
        .two_step(c, SelectionPolicy::Fastest)
        .expect("latency feasible")
}

#[test]
fn two_step_fails_where_combined_succeeds() {
    // hal at T=12, P<=15: the ASAP schedule with fastest modules peaks
    // at 36.6 and the mobility-based reorder cannot get under 15 in 12
    // cycles (measured), while the combined algorithm trades multiplier
    // types and meets the bound.
    let lib = paper_library();
    let g = benchmarks::hal();
    let c = SynthesisConstraints::new(12, 15.0);

    let two = two_step(&g, c.clone());
    assert!(
        !two.met_power,
        "expected the two-step baseline to miss the power bound"
    );

    let combined = synth(&g, c).expect("the combined algorithm meets the same constraints");
    combined.validate(&g, &lib).unwrap();
    assert!(combined.peak_power <= 15.0 + 1e-9);
}

#[test]
fn combined_design_is_smaller_when_power_binds() {
    // hal at T=17, P<=12: both succeed, but the two-step flow is stuck
    // with the fastest-module selection it started from, while the
    // combined algorithm swaps in serial multipliers.
    let g = benchmarks::hal();
    let c = SynthesisConstraints::new(17, 12.0);

    let two = two_step(&g, c.clone());
    let combined = synth(&g, c).expect("feasible");
    assert!(two.met_power, "baseline meets power at this point");
    assert!(
        combined.area < two.design.area,
        "combined {} !< two-step {}",
        combined.area,
        two.design.area
    );
}

#[test]
fn combined_never_reports_a_violating_design() {
    // Unlike the two-step baseline (which returns best-effort designs
    // with `met_power = false`), the combined algorithm either meets
    // both constraints or returns an error — across a whole grid.
    let lib = paper_library();
    let engine = Engine::new(lib.clone());
    for g in benchmarks::paper_set() {
        // One compile per benchmark, shared by the whole constraint grid.
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        for t in [10u32, 15, 22, 30] {
            for p in [9.0, 15.0, 30.0, 80.0] {
                if let Ok(d) = session.synthesize(
                    SynthesisConstraints::new(t, p),
                    &SynthesisOptions::default(),
                ) {
                    assert!(d.latency <= t, "{} T={t} P={p}", g.name());
                    assert!(d.peak_power <= p + 1e-9, "{} T={t} P={p}", g.name());
                    d.validate(&g, &lib).unwrap();
                }
            }
        }
    }
}

#[test]
fn unconstrained_baseline_shows_the_spikes() {
    // Figure 1's premise: the power-oblivious design has a worse
    // peak-to-average ratio than any power-constrained one.
    let g = benchmarks::hal();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&g);
    let oblivious = engine
        .session(&compiled)
        .unconstrained(20, SelectionPolicy::Fastest)
        .unwrap();
    let constrained = synth(&g, SynthesisConstraints::new(20, 12.0)).unwrap();
    assert!(
        oblivious.power_profile().peak_to_average() > constrained.power_profile().peak_to_average()
    );
}
