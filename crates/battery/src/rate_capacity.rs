//! Rate-capacity battery: charge above a peak-current knee is wasted.

use serde::{Deserialize, Serialize};

use crate::models::{BatteryModel, Lifetime, MAX_ITERATIONS};

/// A battery exhibiting the *rate-capacity effect* the paper's
/// introduction describes: "if the peak-current exceeds a
/// maximum-threshold the life-time starts dropping dramatically".
///
/// Draw up to the rated knee costs exactly the charge delivered; every
/// unit drawn above the knee additionally wastes charge proportional to
/// the overshoot (electrode over-potential, heating and diffusion losses
/// lumped into one penalty slope):
///
/// ```text
/// cost(p) = p · (1 + penalty · max(0, p − knee))
/// ```
///
/// A flattened schedule that keeps every cycle at or below the knee
/// therefore delivers the battery's full charge, while a spiky schedule
/// with the same energy per iteration cuts off 20–30 % earlier on a
/// low-quality cell — the magnitude reported by the battery-aware
/// scheduling literature the paper cites.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateCapacityBattery {
    capacity: f64,
    knee: f64,
    penalty: f64,
}

impl RateCapacityBattery {
    /// A battery with `capacity` charge, rated per-cycle draw `knee`, and
    /// penalty slope `penalty` per unit of overshoot.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > 0`, `knee ≥ 0` and `penalty ≥ 0`.
    #[must_use]
    pub(crate) fn new(capacity: f64, knee: f64, penalty: f64) -> RateCapacityBattery {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        assert!(knee.is_finite() && knee >= 0.0, "knee must be non-negative");
        assert!(
            penalty.is_finite() && penalty >= 0.0,
            "penalty must be non-negative"
        );
        RateCapacityBattery {
            capacity,
            knee,
            penalty,
        }
    }

    /// A cheap cell: rated for 10 power units per cycle, wasting 1.5 % of
    /// a spike's charge per unit of overshoot.
    #[must_use]
    pub fn low_quality(capacity: f64) -> RateCapacityBattery {
        RateCapacityBattery::new(capacity, 10.0, 0.015)
    }

    /// Effective charge consumed by drawing `p` for one cycle.
    #[must_use]
    pub(crate) fn cost(&self, p: f64) -> f64 {
        p * (1.0 + self.penalty * (p - self.knee).max(0.0))
    }
}

impl BatteryModel for RateCapacityBattery {
    fn lifetime(&self, profile: &[f64]) -> Lifetime {
        let per_iteration: f64 = profile.iter().map(|&p| self.cost(p)).sum();
        let delivered_per_iteration: f64 = profile.iter().sum();
        if per_iteration <= 0.0 || profile.is_empty() {
            return Lifetime {
                iterations: MAX_ITERATIONS,
                extra_cycles: 0,
                delivered_charge: 0.0,
            };
        }
        let full = ((self.capacity / per_iteration) as u64).min(MAX_ITERATIONS);
        let mut remaining = self.capacity - full as f64 * per_iteration;
        let mut delivered = full as f64 * delivered_per_iteration;
        let mut extra = 0u64;
        for &p in profile {
            let cost = self.cost(p);
            if remaining < cost {
                break;
            }
            remaining -= cost;
            delivered += p;
            extra += 1;
        }
        Lifetime {
            iterations: full,
            extra_cycles: extra,
            delivered_charge: delivered,
        }
    }

    fn name(&self) -> &str {
        "rate-capacity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare_profiles;

    #[test]
    fn flat_profiles_deliver_more_charge() {
        let b = RateCapacityBattery::low_quality(10_000.0);
        let spiky = vec![30.0, 0.0, 0.0];
        let flat = vec![10.0, 10.0, 10.0];
        let s = b.lifetime(&spiky);
        let f = b.lifetime(&flat);
        assert!(f.delivered_charge > s.delivered_charge);
        assert!(f.total_cycles(3) > s.total_cycles(3));
    }

    #[test]
    fn lifetime_extension_matches_cited_magnitude() {
        // The paper cites 20–30 % extensions on low-quality batteries for
        // peak-flattened schedules; a 3× peak reduction at equal energy
        // should land in that regime.
        let b = RateCapacityBattery::low_quality(10_000.0);
        let spiky = vec![30.0, 0.0, 0.0, 30.0, 0.0, 0.0];
        let flat = vec![10.0; 6];
        let gain = compare_profiles(&b, &spiky, &flat).extension;
        assert!(
            (1.1..1.6).contains(&gain),
            "gain {gain} outside the cited magnitude"
        );
    }

    #[test]
    fn high_quality_cells_care_less() {
        let spiky = vec![30.0, 0.0, 0.0];
        let flat = vec![10.0; 3];
        let lq = RateCapacityBattery::low_quality(10_000.0);
        let hq = RateCapacityBattery::new(10_000.0, 25.0, 0.005);
        let lq_gain = compare_profiles(&lq, &spiky, &flat).extension;
        let hq_gain = compare_profiles(&hq, &spiky, &flat).extension;
        assert!(lq_gain > hq_gain);
    }

    #[test]
    fn zero_penalty_behaves_ideally() {
        let rc = RateCapacityBattery::new(1000.0, 0.0, 0.0);
        let ideal = crate::IdealBattery::new(1000.0);
        let profile = vec![4.0, 6.0, 0.0];
        assert_eq!(
            rc.lifetime(&profile).total_cycles(3),
            ideal.lifetime(&profile).total_cycles(3)
        );
    }

    #[test]
    fn draws_below_the_knee_cost_exactly_their_charge() {
        let b = RateCapacityBattery::low_quality(1.0);
        assert!((b.cost(10.0) - 10.0).abs() < 1e-12);
        assert!((b.cost(5.0) - 5.0).abs() < 1e-12);
        assert!(b.cost(20.0) > 20.0);
    }

    #[test]
    fn charge_is_conserved() {
        // Delivered charge can never exceed total capacity.
        let b = RateCapacityBattery::low_quality(5_000.0);
        let l = b.lifetime(&[25.0, 5.0, 0.0]);
        assert!(l.delivered_charge <= 5_000.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "penalty")]
    fn negative_penalty_rejected() {
        let _ = RateCapacityBattery::new(10.0, 1.0, -0.1);
    }
}
