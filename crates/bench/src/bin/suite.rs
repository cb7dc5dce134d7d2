//! Regression dashboard: every benchmark through the paper algorithm,
//! the refined variant and the portfolio at standard constraints, with
//! the extended (registers + muxes) area breakdown. Timing lives in
//! `perfbench`; this binary prints designs only.

use pchls_cdfg::benchmarks;
use pchls_core::{area_breakdown, AreaModel, Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::paper_library;

fn main() {
    let engine = Engine::new(paper_library());
    let opts = SynthesisOptions::default();
    println!(
        "{:<10} {:>4} {:>6} | {:>6} {:>7} {:>7} | {:>5} {:>5} {:>6}",
        "benchmark", "T", "P<", "paper", "refined", "portf.", "regs", "muxes", "full"
    );
    println!("{}", "-".repeat(76));
    for g in benchmarks::all() {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        // Standard constraints: 1.5x the fastest critical path (the
        // compiled graph's minimum latency), a power budget of 40.
        let t = compiled.min_latency() * 3 / 2;
        let c = SynthesisConstraints::new(t, 40.0);
        let paper = session.synthesize(c.clone(), &opts);
        let refined = session.synthesize_refined(c.clone(), &opts);
        let portfolio = session.synthesize_portfolio(c, &opts);
        let fmt = |r: &Result<pchls_core::SynthesizedDesign, _>| match r {
            Ok(d) => d.area.to_string(),
            Err(_) => "-".into(),
        };
        let (regs, muxes, full) = match &portfolio {
            Ok(d) => {
                let b = area_breakdown(d, &g, AreaModel::with_storage());
                (
                    (b.registers / u64::from(AreaModel::with_storage().register)).to_string(),
                    (b.interconnect / u64::from(AreaModel::with_storage().mux_input)).to_string(),
                    b.total().to_string(),
                )
            }
            Err(_) => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<10} {:>4} {:>6} | {:>6} {:>7} {:>7} | {:>5} {:>5} {:>6}",
            g.name(),
            t,
            40.0,
            fmt(&paper),
            fmt(&refined),
            fmt(&portfolio),
            regs,
            muxes,
            full
        );
    }
}
