//! Peukert-law battery.

use serde::{Deserialize, Serialize};

use crate::models::{BatteryModel, Lifetime, MAX_ITERATIONS};

/// A battery obeying Peukert's law: drawing power `p` for one cycle costs
/// `p^k` effective charge, with exponent `k > 1`, so the same energy
/// delivered in spikes exhausts the battery sooner than delivered flat.
///
/// Typical exponents: ~1.05 for high-quality lithium cells, 1.2–1.4 for
/// cheap lead-acid-like chemistry — the "low-priced (low-quality)
/// battery" of the paper's introduction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeukertBattery {
    capacity: f64,
    exponent: f64,
}

impl PeukertBattery {
    /// A battery with `capacity` effective charge and Peukert exponent
    /// `exponent`.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > 0` and `exponent ≥ 1`.
    #[must_use]
    pub(crate) fn new(capacity: f64, exponent: f64) -> PeukertBattery {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        assert!(
            exponent.is_finite() && exponent >= 1.0,
            "Peukert exponent must be at least 1"
        );
        PeukertBattery { capacity, exponent }
    }

    /// A high-quality cell (`k = 1.05`).
    #[must_use]
    pub fn high_quality(capacity: f64) -> PeukertBattery {
        PeukertBattery::new(capacity, 1.05)
    }

    /// A low-quality cell (`k = 1.3`) — the battery the paper's low-cost
    /// systems are stuck with.
    #[must_use]
    pub fn low_quality(capacity: f64) -> PeukertBattery {
        PeukertBattery::new(capacity, 1.3)
    }
}

impl BatteryModel for PeukertBattery {
    fn lifetime(&self, profile: &[f64]) -> Lifetime {
        let per_iteration: f64 = profile.iter().map(|&p| p.powf(self.exponent)).sum();
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
            let cost = p.powf(self.exponent);
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
        "peukert"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare_profiles;

    #[test]
    fn spikes_cost_more_than_flat() {
        let b = PeukertBattery::low_quality(1e6);
        let spiky = vec![20.0, 0.0];
        let flat = vec![10.0, 10.0]; // same energy per iteration
        let s = b.lifetime(&spiky);
        let f = b.lifetime(&flat);
        assert!(
            f.total_cycles(2) > s.total_cycles(2),
            "flat {} !> spiky {}",
            f.total_cycles(2),
            s.total_cycles(2)
        );
    }

    #[test]
    fn exponent_one_is_ideal() {
        let p = PeukertBattery::new(1000.0, 1.0);
        let i = crate::IdealBattery::new(1000.0);
        let profile = vec![7.0, 3.0, 0.0, 12.0];
        assert_eq!(
            p.lifetime(&profile).iterations,
            i.lifetime(&profile).iterations
        );
    }

    #[test]
    fn low_quality_punishes_spikes_harder() {
        let profile_spiky = vec![30.0, 0.0, 0.0];
        let profile_flat = vec![10.0, 10.0, 10.0];
        let hq = PeukertBattery::high_quality(1e6);
        let lq = PeukertBattery::low_quality(1e6);
        let hq_gain = compare_profiles(&hq, &profile_spiky, &profile_flat).extension;
        let lq_gain = compare_profiles(&lq, &profile_spiky, &profile_flat).extension;
        assert!(
            lq_gain > hq_gain,
            "low quality gain {lq_gain} !> high quality gain {hq_gain}"
        );
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn sub_unit_exponent_rejected() {
        let _ = PeukertBattery::new(10.0, 0.9);
    }
}
