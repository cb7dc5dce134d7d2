//! Deriving synthesis power budgets from battery models.
//!
//! This is the coupling the paper motivates but never builds: the
//! battery chemistry decides *how much per-cycle power the supply can
//! actually deliver as charge drains*, and that deliverable envelope —
//! not a designer-picked scalar — becomes the synthesis constraint.
//! [`budget_from_model`] turns any [`BatteryModel`] into a
//! [`PowerBudget`] envelope the scheduling and synthesis layers consume
//! directly (`SynthesisConstraints::new(T, budget)`).

use pchls_sched::PowerBudget;

use crate::models::{BatteryModel, MAX_ITERATIONS};

/// Derives a sagging per-cycle power envelope from a battery model.
///
/// The derivation probes the model with a constant draw of `peak` (the
/// bound a fresh, fully charged cell sustains) and reads off how many
/// cycles the cell survives it — the model's own measure of how quickly
/// state of charge collapses under that load. The envelope then sags
/// linearly with the implied state-of-charge trajectory:
///
/// ```text
/// bound(c) = floor + (peak - floor) · soc(c),   soc(c) = 1 − c / sustain_cycles
/// ```
///
/// clamped to never drop below `floor` (the deep-discharge bound the
/// regulator still guarantees). An [`IdealBattery`](crate::IdealBattery)
/// with ample capacity sustains `peak` for millions of cycles, so its
/// envelope is indistinguishable from the scalar constraint; a
/// low-quality [`RateCapacityBattery`](crate::RateCapacityBattery)
/// wastes charge at every `peak` draw, sustains far fewer cycles, and
/// produces a visibly sagging envelope — exactly the scenario space the
/// paper's battery-aware motivation describes.
///
/// The returned budget covers `horizon` cycles (per-cycle shape). When
/// the sag over the whole horizon is negligible (under one part in
/// 10⁶ of `peak`), the constant budget is returned instead.
///
/// # Panics
///
/// Panics if `horizon` is zero, `peak` is not finite and positive, or
/// `floor` is negative, NaN, or above `peak`.
#[must_use]
pub fn budget_from_model(
    model: &dyn BatteryModel,
    horizon: u32,
    peak: f64,
    floor: f64,
) -> PowerBudget {
    assert!(horizon > 0, "horizon must be at least one cycle");
    assert!(
        peak.is_finite() && peak > 0.0,
        "peak draw must be finite and positive"
    );
    assert!(
        !floor.is_nan() && (0.0..=peak).contains(&floor),
        "floor must lie in [0, peak]"
    );
    // How long the cell sustains a constant draw of `peak`: the model's
    // own state-of-charge clock. `lifetime` replays a 1-cycle profile,
    // so total cycles = iterations + extra.
    let sustain_cycles = model.lifetime(&[peak]).total_cycles(1).max(1);
    let sag_per_cycle = 1.0 / sustain_cycles as f64;
    // A cell that outlives MAX_ITERATIONS of peak draw is effectively
    // ideal at this horizon: sag would be < horizon / 1e7.
    let last_soc = 1.0 - f64::from(horizon - 1) * sag_per_cycle;
    if sustain_cycles >= MAX_ITERATIONS || (peak - floor) * (1.0 - last_soc) < peak * 1e-6 {
        return PowerBudget::constant(peak);
    }
    let bounds: Vec<f64> = (0..horizon)
        .map(|c| {
            let soc = (1.0 - f64::from(c) * sag_per_cycle).max(0.0);
            floor + (peak - floor) * soc
        })
        .collect();
    PowerBudget::per_cycle(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdealBattery, PeukertBattery, RateCapacityBattery};

    #[test]
    fn ideal_cells_keep_the_scalar_constraint() {
        let b = budget_from_model(&IdealBattery::new(1e12), 20, 25.0, 5.0);
        assert_eq!(b, PowerBudget::constant(25.0));
    }

    #[test]
    fn weak_cells_produce_a_sagging_envelope() {
        // A tiny low-quality cell: constant 25-draw kills it fast, so
        // the envelope must sag noticeably across 20 cycles.
        let cell = RateCapacityBattery::low_quality(2_000.0);
        let b = budget_from_model(&cell, 20, 25.0, 5.0);
        assert!(b.as_constant().is_none(), "expected an envelope");
        assert_eq!(b.bound_at(0), 25.0);
        assert!(b.bound_at(19) < 25.0);
        // Monotone non-increasing, floored.
        for c in 1..20 {
            assert!(b.bound_at(c) <= b.bound_at(c - 1), "cycle {c}");
            assert!(b.bound_at(c) >= 5.0, "cycle {c}");
        }
    }

    #[test]
    fn weaker_chemistry_sags_faster() {
        let strong = budget_from_model(&PeukertBattery::new(50_000.0, 1.1), 30, 25.0, 0.0);
        let weak = budget_from_model(&PeukertBattery::new(5_000.0, 1.3), 30, 25.0, 0.0);
        assert!(weak.bound_at(29) < strong.bound_at(29));
    }

    #[test]
    fn envelope_feeds_the_scheduler() {
        // End-to-end within the crate boundary: the derived envelope is
        // a valid ledger budget.
        let cell = RateCapacityBattery::low_quality(2_000.0);
        let budget = budget_from_model(&cell, 16, 25.0, 5.0);
        let ledger = pchls_sched::PowerLedger::under(16, &budget);
        assert!(ledger.fits(0, 2, 20_000));
        // Late cycles have sagged below what early cycles admit.
        let opening = pchls_fulib::bound_quanta(budget.bound_at(0));
        assert!(ledger.fits(0, 1, opening));
        assert!(!ledger.fits(15, 1, opening));
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn floor_above_peak_rejected() {
        let _ = budget_from_model(&IdealBattery::new(1e6), 10, 10.0, 20.0);
    }
}
