//! The independent output check, run outside every timed window.
//!
//! A design is accepted only if its bound datapath, simulated cycle by
//! cycle, computes what the reference interpreter computes on seeded
//! stimuli, and its realised per-cycle power never exceeds the budget
//! envelope. A served point is accepted only if it equals the point a
//! direct `Session::synthesize` of the same request produces, and that
//! direct design passes the datapath check.

use std::time::Duration;

use pchls_cdfg::{graph_fingerprint, parse_cdfg, Cdfg, Interpreter};
use pchls_core::{
    Engine, SweepPoint, SynthesisOptions, SynthesisRequest, SynthesisResult, SynthesizedDesign,
};
use pchls_rtl::{simulate, Datapath};

use crate::inputs::{stimulus, Point, Rng};
use crate::util::timed;

/// Stimuli simulated per design.
const STIMULI: usize = 3;

/// Slack allowed on the power comparison (the trace sums the same
/// per-operation powers the scheduler summed, in another order).
const POWER_EPS: f64 = 1e-9;

/// Simulates `design` against the interpreter and checks its power
/// trace against the budget.
pub fn check_design(
    graph: &Cdfg,
    design: &SynthesizedDesign,
    engine: &Engine,
    rng: &mut Rng,
) -> Result<(), String> {
    let datapath = Datapath::build(graph, design, engine.library());
    let interpreter = Interpreter::new(graph);
    for _ in 0..STIMULI {
        let stim = stimulus(graph, rng);
        let run = simulate(graph, &datapath, &stim).map_err(|e| format!("simulate: {e}"))?;
        let reference = interpreter
            .run(&stim)
            .map_err(|e| format!("interpret: {e}"))?;
        if run.outputs != reference {
            return Err(format!(
                "{}: datapath outputs differ from the interpreter",
                graph.name()
            ));
        }
        let budget = &design.constraints.budget;
        if let Some((cycle, used)) = run
            .power_trace
            .iter()
            .enumerate()
            .find(|&(c, &p)| p > budget.bound_at(c as u32) + POWER_EPS)
        {
            return Err(format!(
                "{}: cycle {cycle} draws {used} over its bound {}",
                graph.name(),
                budget.bound_at(cycle as u32)
            ));
        }
    }
    Ok(())
}

/// The direct reference run of one served request.
pub struct Reference {
    /// The graph as parsed from the request's text.
    pub graph: Cdfg,
    pub point: SweepPoint,
    pub design: Option<SynthesizedDesign>,
    pub parse: Duration,
    pub fingerprint: Duration,
    pub compile: Duration,
    pub synthesize: Duration,
}

impl Reference {
    /// Puts the reference design through the datapath oracle.
    pub fn check(&self, engine: &Engine, rng: &mut Rng) -> Result<(), String> {
        self.design
            .as_ref()
            .map_or(Ok(()), |d| check_design(&self.graph, d, engine, rng))
    }
}

/// Runs one served request directly, from the text the service
/// received — parse, fingerprint, compile, and synthesize with the
/// kernel serial, as service workers run it — timing each step.
pub fn reference(engine: &Engine, point: &Point) -> Result<Reference, String> {
    let (graph, parse) = timed(|| parse_cdfg(&point.text));
    let graph = graph.map_err(|e| format!("parse: {e}"))?;
    let (_, fingerprint) = timed(|| graph_fingerprint(&graph));
    let (compiled, compile) = timed(|| engine.compile(&graph));
    let session = engine.session(&compiled);
    let options = SynthesisOptions::default();
    let (outcome, synthesize) = timed(|| {
        pchls_par::with_thread_count(1, || {
            session.synthesize(point.constraints.clone(), &options)
        })
    });
    let design = outcome.as_ref().ok().cloned();
    let result = SynthesisResult {
        request: SynthesisRequest::new(point.constraints.clone()).with_options(options),
        outcome,
    };
    Ok(Reference {
        graph,
        point: result.to_point(compiled.name()),
        design,
        parse,
        fingerprint,
        compile,
        synthesize,
    })
}
