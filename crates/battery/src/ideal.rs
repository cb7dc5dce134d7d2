//! The ideal coulomb-counting battery.

use serde::{Deserialize, Serialize};

use crate::models::{BatteryModel, Lifetime, MAX_ITERATIONS};

/// An ideal battery: a fixed charge reservoir drained by exactly the
/// power drawn, independent of the profile's shape.
///
/// Under this model, peak-flattening buys *nothing* — it is the control
/// case that isolates what the non-ideal models add.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealBattery {
    capacity: f64,
}

impl IdealBattery {
    /// A battery holding `capacity` charge units.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    #[must_use]
    pub fn new(capacity: f64) -> IdealBattery {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        IdealBattery { capacity }
    }
}

impl BatteryModel for IdealBattery {
    fn lifetime(&self, profile: &[f64]) -> Lifetime {
        let per_iteration: f64 = profile.iter().sum();
        if per_iteration <= 0.0 || profile.is_empty() {
            return Lifetime {
                iterations: MAX_ITERATIONS,
                extra_cycles: 0,
                delivered_charge: 0.0,
            };
        }
        let full = ((self.capacity / per_iteration) as u64).min(MAX_ITERATIONS);
        let mut remaining = self.capacity - full as f64 * per_iteration;
        let mut extra = 0u64;
        let mut delivered = full as f64 * per_iteration;
        for &p in profile {
            if remaining < p {
                break;
            }
            remaining -= p;
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
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_does_not_matter() {
        let b = IdealBattery::new(1000.0);
        let spiky = vec![10.0, 0.0];
        let flat = vec![5.0, 5.0];
        let a = b.lifetime(&spiky);
        let c = b.lifetime(&flat);
        assert_eq!(a.iterations, c.iterations);
        assert_eq!(a.iterations, 100);
    }

    #[test]
    fn partial_iteration_counts_extra_cycles() {
        let b = IdealBattery::new(25.0);
        // 10 per iteration of 2 cycles: 2 full iterations, then cycle 0
        // of the third (5 remaining >= 5... draws 5) — remaining 0, next needs 5.
        let l = b.lifetime(&[5.0, 5.0]);
        assert_eq!(l.iterations, 2);
        assert_eq!(l.extra_cycles, 1);
        assert!((l.delivered_charge - 25.0).abs() < 1e-9);
    }

    #[test]
    fn zero_profile_saturates() {
        let b = IdealBattery::new(10.0);
        assert_eq!(b.lifetime(&[0.0, 0.0]).iterations, MAX_ITERATIONS);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn non_positive_capacity_rejected() {
        let _ = IdealBattery::new(0.0);
    }
}
