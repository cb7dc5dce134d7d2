//! Guarantees of the `PowerBudget` generalization:
//!
//! * **Constant budgets are the scalar path** — whatever shape spells
//!   the constant (scalar `f64`, one-step envelope, flat per-cycle
//!   vector), synthesis output is byte-identical: designs, decision
//!   traces (`stats`), and serialized sweep-point bytes.
//! * **Envelopes genuinely change outcomes** — a stepwise budget
//!   unlocks constraint points between its floor and its peak: feasible
//!   where the floor constant is not, differently scheduled (and
//!   smaller) than the peak constant, and validated per cycle against
//!   the envelope.

use pchls::battery::budget_from_model;
use pchls::cdfg::{benchmarks, random_dag, RandomDagConfig};
use pchls::core::{
    Engine, PowerBudget, Session, SweepSpec, SynthesisConstraints, SynthesisError,
    SynthesisOptions, SynthesisRequest, SynthesizedDesign,
};
use pchls::fulib::paper_library;

fn session_for(g: &pchls::cdfg::Cdfg) -> (Engine, pchls::core::CompiledGraph) {
    let engine = Engine::new(paper_library());
    let compiled = engine.compile(g);
    (engine, compiled)
}

/// Everything except the `constraints` field (which rightly records the
/// request's own budget spelling) must match bit for bit.
fn assert_same_design(a: &SynthesizedDesign, b: &SynthesizedDesign, what: &str) {
    assert_eq!(a.schedule, b.schedule, "{what}: schedule diverged");
    assert_eq!(a.timing, b.timing, "{what}: timing diverged");
    assert_eq!(a.binding, b.binding, "{what}: binding diverged");
    assert_eq!(a.area, b.area, "{what}: area diverged");
    assert_eq!(a.latency, b.latency, "{what}: latency diverged");
    assert_eq!(
        a.peak_power.to_bits(),
        b.peak_power.to_bits(),
        "{what}: peak power diverged"
    );
    assert_eq!(a.stats, b.stats, "{what}: decision trace diverged");
}

#[test]
fn constant_budget_reproduces_the_scalar_path_byte_for_byte() {
    let opts = SynthesisOptions::default();
    for g in benchmarks::paper_set() {
        let (engine, compiled) = session_for(&g);
        let session = engine.session(&compiled);
        for (t, p) in [(10u32, 40.0), (17, 25.0), (22, 12.0), (30, 60.0)] {
            let scalar = session.synthesize(SynthesisConstraints::new(t, p), &opts);
            let spellings: [(&str, PowerBudget); 3] = [
                ("Constant", PowerBudget::constant(p)),
                ("one-step Steps", PowerBudget::steps(vec![(0, p)])),
                ("flat PerCycle", PowerBudget::per_cycle(vec![p; t as usize])),
            ];
            for (label, budget) in spellings {
                let via_budget = session.synthesize(SynthesisConstraints::new(t, budget), &opts);
                match (&scalar, &via_budget) {
                    (Ok(a), Ok(b)) => {
                        assert_same_design(a, b, &format!("{} T={t} P={p} {label}", g.name()));
                    }
                    (Err(_), Err(_)) => {}
                    (s, b) => panic!(
                        "{} T={t} P={p} {label}: feasibility diverged (scalar ok: {}, budget ok: {})",
                        g.name(),
                        s.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

/// An envelope that is looser than the scalar bound in its first half
/// and equal to it afterwards dominates the scalar constraint, so every
/// point feasible under the scalar bound must stay feasible under it.
/// The cases span the paper set and a small random graph whose latency
/// bound is twice its fastest critical path.
#[test]
fn dominating_stepwise_budgets_stay_feasible() {
    let opts = SynthesisOptions::default();
    let rand30 = random_dag(&RandomDagConfig {
        ops: 30,
        inputs: 6,
        outputs: 3,
        mul_permille: 300,
        depth_bias: 2,
        seed: 11,
    });
    let rand30_latency = session_for(&rand30).1.min_latency() * 2;
    let cases = [
        (benchmarks::hal(), 17, 25.0),
        (benchmarks::cosine(), 15, 40.0),
        (benchmarks::elliptic(), 22, 30.0),
        (rand30, rand30_latency, 60.0),
    ];
    for (g, t, p) in cases {
        let what = format!("{} T={t} P={p}", g.name());
        let (engine, compiled) = session_for(&g);
        let session = engine.session(&compiled);
        let scalar = session
            .synthesize(SynthesisConstraints::new(t, p), &opts)
            .unwrap_or_else(|e| panic!("{what}: scalar point must be feasible: {e}"));
        let flat = session
            .synthesize(
                SynthesisConstraints::new(t, PowerBudget::per_cycle(vec![p; t as usize])),
                &opts,
            )
            .unwrap_or_else(|e| panic!("{what}: flat envelope must be feasible: {e}"));
        assert_same_design(&scalar, &flat, &format!("{what} flat PerCycle"));
        let budget = PowerBudget::steps(vec![(0, p * 1.5), (t / 2, p)]);
        let stepwise = session
            .synthesize(SynthesisConstraints::new(t, budget), &opts)
            .unwrap_or_else(|e| panic!("{what}: dominating stepwise envelope infeasible: {e}"));
        stepwise
            .validate(&g, engine.library())
            .unwrap_or_else(|e| panic!("{what}: stepwise design invalid: {e}"));
    }
}

#[test]
fn constant_budget_sweep_points_serialize_to_identical_bytes() {
    // The figure2.json pipeline, both ways: a scalar power sweep vs the
    // same grid expressed as constant-envelope batch requests.
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();
    let grid = [5.0, 12.0, 25.0, 60.0];

    let scalar_points = session
        .sweep(&SweepSpec::power(17, grid.to_vec()), &opts)
        .into_points();
    let budget_results = session.batch(grid.iter().map(|&p| {
        SynthesisRequest::new(SynthesisConstraints::new(
            17,
            PowerBudget::per_cycle(vec![p; 17]),
        ))
    }));
    // The sweep applies a monotone-envelope pass; on hal's grid the raw
    // batch outcomes already coincide point by point, so byte-compare
    // each pair.
    for (sp, br) in scalar_points.iter().zip(&budget_results) {
        let bp = br.to_point("hal");
        assert_eq!(
            serde_json::to_string(sp).unwrap(),
            serde_json::to_string(&bp).unwrap()
        );
    }
}

/// The end-to-end witness that envelopes widen the scenario space: at
/// `T = 10` hal is feasible under a constant 40 (area 1146) and
/// infeasible under a constant 15, while the stepwise envelope
/// `40 → 15@5` is feasible with a *different schedule* — the kernel
/// packs the power-hungry work into the loose opening phase.
#[test]
fn stepwise_envelope_demonstrably_changes_the_schedule() {
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();

    let peak_const = session
        .synthesize(SynthesisConstraints::new(10, 40.0), &opts)
        .expect("loose constant is feasible");
    let floor_const = session.synthesize(SynthesisConstraints::new(10, 15.0), &opts);
    assert!(
        matches!(floor_const, Err(SynthesisError::Infeasible { .. })),
        "the envelope's floor alone must be infeasible for this witness"
    );

    let budget = PowerBudget::steps(vec![(0, 40.0), (5, 15.0)]);
    let enveloped = session
        .synthesize(SynthesisConstraints::new(10, budget.clone()), &opts)
        .expect("the envelope unlocks the point");
    assert_ne!(
        enveloped.schedule, peak_const.schedule,
        "the tight tail must reshape the schedule"
    );
    // Per-cycle compliance against the envelope, not just the peak.
    let profile = enveloped.power_profile();
    for (c, &p) in profile.per_cycle().iter().enumerate() {
        assert!(
            p <= budget.bound_at(c as u32) + 1e-9,
            "cycle {c} draws {p} over bound {}",
            budget.bound_at(c as u32)
        );
    }
    enveloped
        .validate(&g, engine.library())
        .expect("envelope design validates");
    // And the envelope found a smaller design than the peak constant
    // (the loose phase is narrower than a uniformly loose budget, which
    // pressures the greedy into more sharing).
    assert!(
        enveloped.area < peak_const.area,
        "envelope area {} vs constant-40 area {}",
        enveloped.area,
        peak_const.area
    );
}

#[test]
fn budget_scale_sweeps_cover_the_floor_to_peak_transition() {
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();
    let budget = PowerBudget::steps(vec![(0, 40.0), (5, 15.0)]);
    let scales = vec![0.1, 0.5, 1.0, 1.5];
    let spec = SweepSpec::budget_scale(10, budget, scales.clone());
    assert_eq!(spec.len(), scales.len());
    let result = session.sweep(&spec, &opts);
    assert_eq!(result.points.len(), scales.len());
    // A starved envelope is infeasible, the full one is feasible, and
    // feasibility is monotone along the scale axis (enforced by the
    // envelope carry).
    assert!(!result.points[0].is_feasible());
    assert!(result.points[2].is_feasible());
    let mut seen_feasible = false;
    for p in &result.points {
        if p.is_feasible() {
            seen_feasible = true;
        } else {
            assert!(!seen_feasible, "feasibility must be monotone in scale");
        }
    }
    // Areas never grow as the envelope relaxes.
    let areas: Vec<u64> = result.points.iter().filter_map(|p| p.area).collect();
    for w in areas.windows(2) {
        assert!(w[1] <= w[0], "{areas:?}");
    }
}

#[test]
fn battery_derived_budgets_flow_end_to_end_into_synthesis() {
    // The full coupling the paper motivates: battery model → sagging
    // envelope → synthesis constraint → validated design.
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let cell = pchls::battery::RateCapacityBattery::low_quality(2_000.0);
    let budget = budget_from_model(&cell, 20, 25.0, 9.0);
    assert!(budget.as_constant().is_none(), "the weak cell must sag");
    let design = session
        .synthesize(
            SynthesisConstraints::new(20, budget.clone()),
            &SynthesisOptions::default(),
        )
        .expect("the sagging envelope stays feasible on hal at T=20");
    design.validate(&g, engine.library()).unwrap();
    let profile = design.power_profile();
    for (c, &p) in profile.per_cycle().iter().enumerate() {
        assert!(p <= budget.bound_at(c as u32) + 1e-9, "cycle {c}");
    }
}

#[test]
fn refined_and_portfolio_respect_envelope_constraints() {
    // The ratchet must tighten an envelope by clamping, never by
    // replacing it with a scalar that relaxes a phase.
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();
    let budget = PowerBudget::steps(vec![(0, 40.0), (9, 12.0)]);
    let c = SynthesisConstraints::new(17, budget.clone());
    let refined = session
        .synthesize_refined(c.clone(), &opts)
        .expect("feasible");
    refined.validate(&g, engine.library()).unwrap();
    assert_eq!(refined.constraints, c, "original constraints reported");
    let plain = session.synthesize(c.clone(), &opts).unwrap();
    assert!(refined.area <= plain.area);
    let portfolio = session.synthesize_portfolio(c, &opts).expect("feasible");
    portfolio.validate(&g, engine.library()).unwrap();
}

#[test]
fn two_step_baseline_flattens_against_the_envelope() {
    use pchls::fulib::SelectionPolicy;
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let budget = PowerBudget::steps(vec![(0, 40.0), (9, 20.0)]);
    let c = SynthesisConstraints::new(20, budget.clone());
    let baseline = session
        .two_step(c, SelectionPolicy::Fastest)
        .expect("latency feasible");
    if baseline.met_power {
        let profile = baseline.design.power_profile();
        for (cyc, &p) in profile.per_cycle().iter().enumerate() {
            assert!(p <= budget.bound_at(cyc as u32) + 1e-9, "cycle {cyc}");
        }
    }
}

#[test]
fn budget_entries_past_the_horizon_cannot_change_the_outcome() {
    // A bound that lies entirely past the latency deadline can never
    // admit or constrain anything: the effective peak every
    // quick-reject compares against is horizon-bounded, so appending
    // an unreachable loose phase must leave the design bit-identical
    // (it once let the bootstrap pick modules the scheduler then
    // hard-rejected, flipping feasible points to Infeasible).
    let g = benchmarks::hal();
    let (engine, compiled) = session_for(&g);
    let session = engine.session(&compiled);
    let opts = SynthesisOptions::default();
    for (t, p) in [(17u32, 25.0), (10, 40.0)] {
        let exact = session
            .synthesize(
                SynthesisConstraints::new(t, PowerBudget::per_cycle(vec![p; t as usize])),
                &opts,
            )
            .expect("feasible");
        let mut overhang = vec![p; t as usize];
        overhang.push(1_000.0);
        let with_overhang = session
            .synthesize(
                SynthesisConstraints::new(t, PowerBudget::per_cycle(overhang)),
                &opts,
            )
            .expect("the unreachable bound must not break feasibility");
        assert_same_design(&exact, &with_overhang, &format!("hal T={t} P={p} overhang"));
        // A step at the horizon is equally inert.
        let stepped = session
            .synthesize(
                SynthesisConstraints::new(t, PowerBudget::steps(vec![(0, p), (t, 1_000.0)])),
                &opts,
            )
            .expect("feasible");
        assert_same_design(&exact, &stepped, &format!("hal T={t} P={p} late step"));
    }
    // And the reported constraint peak is the effective one.
    let c = SynthesisConstraints::new(10, PowerBudget::steps(vec![(0, 20.0), (10, 999.0)]));
    assert_eq!(c.max_power(), 20.0);
}

#[test]
fn session_type_is_still_copy_for_cheap_sharing() {
    // The constraints grew a Vec; the session handle must stay a
    // two-pointer Copy so fan-out code keeps passing it by value.
    fn assert_copy<T: Copy>() {}
    assert_copy::<Session<'_>>();
}
