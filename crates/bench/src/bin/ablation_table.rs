//! Ablation table: area achieved by each heuristic variant on the
//! Figure 2 curve points (one representative power bound per curve).
//! Feeds the ablation section of EXPERIMENTS.md.

use pchls_bench::figure2_curves;
use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
use pchls_fulib::{paper_library, SelectionPolicy};

fn main() {
    let engine = Engine::new(paper_library());
    let variants: [(&str, SynthesisOptions); 4] = [
        ("full", SynthesisOptions::default()),
        (
            "-modsel",
            SynthesisOptions {
                module_selection: false,
                ..SynthesisOptions::default()
            },
        ),
        (
            "-interc",
            SynthesisOptions {
                interconnect_scoring: false,
                ..SynthesisOptions::default()
            },
        ),
        (
            "-backtr",
            SynthesisOptions {
                backtracking: false,
                ..SynthesisOptions::default()
            },
        ),
    ];
    println!("Ablation: functional-unit area per heuristic variant (P<=40)\n");
    print!("{:<14}", "curve");
    for (name, _) in &variants {
        print!("{name:>9}");
    }
    print!("{:>9}", "+refine");
    print!("{:>9}", "2step");
    println!("{:>9}", "trim");
    for (g, t) in figure2_curves() {
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let c = SynthesisConstraints::new(t, 40.0);
        print!("{:<14}", format!("{}-T{t}", g.name()));
        for (_, opts) in &variants {
            match session.synthesize(c.clone(), opts) {
                Ok(d) => print!("{:>9}", d.area),
                Err(_) => print!("{:>9}", "-"),
            }
        }
        match session.synthesize_refined(c.clone(), &SynthesisOptions::default()) {
            Ok(d) => print!("{:>9}", d.area),
            Err(_) => print!("{:>9}", "-"),
        }
        match session.two_step(c.clone(), SelectionPolicy::Fastest) {
            Ok(b) if b.met_power => print!("{:>9}", b.design.area),
            Ok(_) => print!("{:>9}", "miss"),
            Err(_) => print!("{:>9}", "-"),
        }
        match session.trimmed_allocation(c, SelectionPolicy::Fastest) {
            Ok(d) => println!("{:>9}", d.area),
            Err(_) => println!("{:>9}", "-"),
        }
    }
}
