//! Self-tightening refinement: use the power constraint as an internal
//! pressure knob.
//!
//! The greedy loop shares more hardware when the power budget forces
//! operations apart in time; a generous budget can therefore leave area
//! on the table. Since any design feasible under a *tighter* budget is
//! feasible under the requested one, re-running synthesis with the bound
//! ratcheted down to just below the previously achieved peak explores
//! those better-shared designs for free. The best design is reported
//! against the caller's original constraints.

use crate::constraints::SynthesisConstraints;
use crate::design::SynthesizedDesign;
use crate::engine::{CompiledGraph, Engine};
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::synthesis::synthesize_session;

/// Upper bound on ratchet iterations; each strictly lowers the internal
/// power bound, so termination is guaranteed anyway (peaks live on the
/// finite grid of module-power sums), but a cap keeps worst cases cheap.
const MAX_RATCHETS: usize = 64;

/// Synthesizes once, then repeatedly re-synthesizes with the power
/// bound tightened to just below the achieved peak, keeping the smallest
/// design; every ratchet iteration reuses the same compiled graph. Never
/// returns a larger design than plain synthesis does, and the result is
/// validated against the *original* constraints. Backs
/// [`Session::synthesize_refined`](crate::Session::synthesize_refined);
/// errors exactly as plain synthesis — refinement only runs once a first
/// design exists.
pub(crate) fn refined_session(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: &SynthesisConstraints,
    options: &SynthesisOptions,
) -> Result<SynthesizedDesign, SynthesisError> {
    let (graph, library) = (compiled.graph(), engine.library());
    let mut best = synthesize_session(engine, compiled, constraints, options, None)?;
    let mut bound = best.peak_power;
    for _ in 0..MAX_RATCHETS {
        // Just below the last peak: forbids the previous placement.
        let tighter = bound - 1e-6;
        if tighter <= 0.0 {
            break;
        }
        // Cap the caller's budget at the ratchet bound instead of
        // replacing it: an envelope constraint keeps every tighter
        // phase, so the candidate stays feasible under the original
        // envelope (for a scalar budget this is the historical constant
        // `tighter`).
        let Ok(candidate) = synthesize_session(
            engine,
            compiled,
            &SynthesisConstraints::new(constraints.latency, constraints.budget.clamped(tighter)),
            options,
            None,
        ) else {
            break;
        };
        let next_bound = candidate.peak_power;
        if candidate.area < best.area {
            best = SynthesizedDesign {
                constraints: constraints.clone(),
                ..candidate
            };
        }
        debug_assert!(next_bound < bound, "ratchet must make progress");
        bound = next_bound;
    }
    best.validate(graph, library)?;
    Ok(best)
}

/// The practical tool entry point: runs the refined combined algorithm
/// *and* the allocation-trimming baseline under both module policies,
/// returning the smallest valid design. Different heuristics win in
/// different regions of the constraint space (see the ablation table in
/// `EXPERIMENTS.md`); a portfolio dominates every member by
/// construction. Backs
/// [`Session::synthesize_portfolio`](crate::Session::synthesize_portfolio);
/// returns the combined algorithm's error only if *every* member fails.
pub(crate) fn portfolio_session(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: &SynthesisConstraints,
    options: &SynthesisOptions,
) -> Result<SynthesizedDesign, SynthesisError> {
    use crate::baseline::trimmed_allocation_bind;
    use pchls_fulib::SelectionPolicy;

    let (graph, library) = (compiled.graph(), engine.library());
    let mut best: Option<SynthesizedDesign> = None;
    let mut first_err: Option<SynthesisError> = None;
    let mut consider = |result: Result<SynthesizedDesign, SynthesisError>| match result {
        Ok(d) => {
            if best.as_ref().is_none_or(|b| d.area < b.area) {
                best = Some(d);
            }
        }
        Err(e) => {
            if first_err.is_none() {
                first_err = Some(e);
            }
        }
    };
    consider(refined_session(engine, compiled, constraints, options));
    consider(trimmed_allocation_bind(
        graph,
        library,
        constraints.clone(),
        SelectionPolicy::Fastest,
    ));
    consider(trimmed_allocation_bind(
        graph,
        library,
        constraints.clone(),
        SelectionPolicy::MinArea,
    ));
    match best {
        Some(d) => {
            d.validate(graph, library)?;
            Ok(d)
        }
        None => Err(first_err.expect("at least one member ran")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::{benchmarks, Cdfg};
    use pchls_fulib::paper_library;

    fn compile(g: &Cdfg) -> (Engine, CompiledGraph) {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(g);
        (engine, compiled)
    }

    #[test]
    fn refined_never_worse_than_plain() {
        let lib = paper_library();
        let opts = SynthesisOptions::default();
        for g in benchmarks::paper_set() {
            let (engine, compiled) = compile(&g);
            let session = engine.session(&compiled);
            for (t, p) in [(30u32, 1e6), (20, 50.0)] {
                let c = SynthesisConstraints::new(t, p);
                let plain = session.synthesize(c.clone(), &opts).unwrap();
                let refined = session.synthesize_refined(c.clone(), &opts).unwrap();
                assert!(
                    refined.area <= plain.area,
                    "{}: refined {} > plain {}",
                    g.name(),
                    refined.area,
                    plain.area
                );
                refined.validate(&g, &lib).unwrap();
                assert_eq!(refined.constraints, c, "original constraints reported");
            }
        }
    }

    #[test]
    fn refinement_finds_sharing_on_generous_budgets() {
        // hal at T=30 with an unlimited budget: plain synthesis leaves
        // parallelism (and area) on the table that the ratchet recovers.
        let (engine, compiled) = compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let c = SynthesisConstraints::new(30, 1e6);
        let opts = SynthesisOptions::default();
        let plain = session.synthesize(c.clone(), &opts).unwrap();
        let refined = session.synthesize_refined(c, &opts).unwrap();
        assert!(refined.area <= plain.area);
        // The refined design must still satisfy the caller's bound
        // trivially and stay within latency.
        assert!(refined.latency <= 30);
    }

    #[test]
    fn refined_propagates_infeasibility() {
        let (engine, compiled) = compile(&benchmarks::hal());
        let c = SynthesisConstraints::new(4, 1e6);
        assert!(engine
            .session(&compiled)
            .synthesize_refined(c, &SynthesisOptions::default())
            .is_err());
    }

    #[test]
    fn portfolio_dominates_every_member() {
        let lib = paper_library();
        let opts = SynthesisOptions::default();
        for g in benchmarks::paper_set() {
            let (engine, compiled) = compile(&g);
            let session = engine.session(&compiled);
            for (t, p) in [(25u32, 40.0), (30, 12.0)] {
                let c = SynthesisConstraints::new(t, p);
                let port = session
                    .synthesize_portfolio(c.clone(), &opts)
                    .unwrap_or_else(|e| panic!("{} T={t} P={p}: {e}", g.name()));
                port.validate(&g, &lib).unwrap();
                if let Ok(d) = session.synthesize_refined(c.clone(), &opts) {
                    assert!(port.area <= d.area, "{}: portfolio > refined", g.name());
                }
                if let Ok(d) = crate::baseline::trimmed_allocation_bind(
                    &g,
                    &lib,
                    c.clone(),
                    pchls_fulib::SelectionPolicy::Fastest,
                ) {
                    assert!(port.area <= d.area, "{}: portfolio > trim", g.name());
                }
            }
        }
    }

    #[test]
    fn portfolio_survives_points_where_members_fail() {
        // Low power: trim(Fastest) cannot run parallel multipliers under
        // P<=8, but the portfolio still succeeds via other members.
        let g = benchmarks::hal();
        let (engine, compiled) = compile(&g);
        let c = SynthesisConstraints::new(40, 8.0);
        let port = engine
            .session(&compiled)
            .synthesize_portfolio(c, &SynthesisOptions::default())
            .unwrap();
        port.validate(&g, &paper_library()).unwrap();
    }
}
