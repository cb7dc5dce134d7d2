//! Failure injection: corrupt valid designs in targeted ways and verify
//! that every validator catches the corruption. A validator that accepts
//! garbage would silently void the whole correctness story.

use pchls::cdfg::{benchmarks, OpKind};
use pchls::core::{Engine, SynthesisConstraints, SynthesisOptions, SynthesizedDesign};
use pchls::fulib::paper_library;
use pchls::sched::{OpTiming, Schedule};

fn valid_design() -> (pchls::cdfg::Cdfg, SynthesizedDesign) {
    let g = benchmarks::hal();
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(&g);
    let d = engine
        .session(&compiled)
        .synthesize(
            SynthesisConstraints::new(17, 25.0),
            &SynthesisOptions::default(),
        )
        .expect("feasible");
    (g, d)
}

#[test]
fn baseline_design_is_valid() {
    let (g, d) = valid_design();
    d.validate(&g, &paper_library()).unwrap();
}

#[test]
fn pulling_an_op_before_its_operand_is_caught() {
    let (g, d) = valid_design();
    // Find an op whose start is positive and has operands.
    let victim = g
        .node_ids()
        .find(|&id| !g.operands(id).is_empty() && d.schedule.start(id) > 0)
        .expect("hal has interior ops");
    let mut starts = d.schedule.starts().to_vec();
    starts[victim.index()] = 0;
    let corrupted = SynthesizedDesign {
        schedule: Schedule::new(starts),
        ..d
    };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn pushing_an_op_past_the_deadline_is_caught() {
    let (g, d) = valid_design();
    let victim = g.outputs().next().unwrap().id();
    let mut starts = d.schedule.starts().to_vec();
    starts[victim.index()] = d.constraints.latency + 5;
    let corrupted = SynthesizedDesign {
        schedule: Schedule::new(starts),
        ..d
    };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn inflating_op_power_past_the_bound_is_caught() {
    let (g, d) = valid_design();
    let victim = g
        .nodes()
        .iter()
        .find(|n| n.kind() == OpKind::Mul)
        .unwrap()
        .id();
    let mut timing = d.timing.clone();
    timing.set(
        victim,
        OpTiming {
            delay: timing.delay(victim),
            power: pchls::fulib::bound_quanta(d.constraints.max_power()) + 10_000,
        },
    );
    let corrupted = SynthesizedDesign { timing, ..d };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn timing_module_mismatch_is_caught() {
    let (g, d) = valid_design();
    // Give one multiplication a delay matching no module consistent with
    // its instance.
    let victim = g
        .nodes()
        .iter()
        .find(|n| n.kind() == OpKind::Mul)
        .unwrap()
        .id();
    let mut timing = d.timing.clone();
    timing.set(
        victim,
        OpTiming {
            delay: 1, // no 1-cycle multiplier exists
            power: timing.power(victim),
        },
    );
    let corrupted = SynthesizedDesign { timing, ..d };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn overlapping_shared_instance_is_caught() {
    let (g, d) = valid_design();
    // Find an instance with two ops and move the second onto the first's
    // start cycle.
    let inst = d
        .binding
        .instances()
        .iter()
        .find(|i| i.ops().len() >= 2)
        .expect("synthesis shares units at these constraints");
    let (a, b) = (inst.ops()[0], inst.ops()[1]);
    let mut starts = d.schedule.starts().to_vec();
    starts[b.index()] = starts[a.index()];
    let corrupted = SynthesizedDesign {
        schedule: Schedule::new(starts),
        ..d
    };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn lying_about_the_power_bound_is_caught() {
    let (g, d) = valid_design();
    let corrupted = SynthesizedDesign {
        constraints: SynthesisConstraints::new(d.constraints.latency, d.peak_power / 2.0),
        ..d
    };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}

#[test]
fn lying_about_the_latency_bound_is_caught() {
    let (g, d) = valid_design();
    let corrupted = SynthesizedDesign {
        constraints: SynthesisConstraints::new(
            d.latency.saturating_sub(2).max(1),
            d.constraints.max_power(),
        ),
        ..d
    };
    assert!(corrupted.validate(&g, &paper_library()).is_err());
}
