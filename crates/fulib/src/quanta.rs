//! Power as an exact integer count of milli-units.
//!
//! Every power inside pchls — module draws, per-operation timings,
//! ledger cells, profiles — is a `u64` count of quanta, one quantum
//! being a thousandth of the paper's power unit. Every Table 1 power
//! (0.2, 1.7, 2.5, 2.7, 8.1) is a whole number of quanta, so sums of
//! them are exact and the per-cycle constraint `Σ p ≤ P` is decided
//! without tolerance.
//!
//! This module owns the representation: the quantum, the exact
//! conversion of a library power ([`quanta`]), the one rounding rule for
//! budget bounds ([`bound_quanta`]) and the conversion back to power
//! units for output ([`units`], and [`power_value`] /
//! [`power_from_value`] for serialized fields, which are written in
//! power units).

use serde::{Deserialize, Serialize};

/// Quanta per power unit.
pub const QUANTA_PER_UNIT: u64 = 1000;

/// The exact quanta count of a module power, or `None` when `power` is
/// negative, not finite, above `u32::MAX` quanta (so no per-cycle sum of
/// module powers can overflow), or not the `f64` nearest to a whole
/// number of quanta (`2.5` is 2500 quanta; `0.0005` is refused).
#[must_use]
pub fn quanta(power: f64) -> Option<u64> {
    let q = (power * QUANTA_PER_UNIT as f64).round();
    (q >= 0.0 && q <= f64::from(u32::MAX) && units(q as u64) == power).then_some(q as u64)
}

/// A budget bound in quanta: `floor((bound + 1e-9) · 1000)`.
///
/// Library powers and their sums lie on the quantum lattice, so
/// `sum ≤ bound_quanta(b)` decides exactly as the `f64` comparison
/// `sum ≤ b + 1e-9` does, including for bounds off the lattice (sweep
/// grid points, fractions of a peak). An infinite bound, or one past the
/// `u64` range, saturates to `u64::MAX`: a sentinel no sum of module
/// powers can reach.
#[must_use]
pub fn bound_quanta(bound: f64) -> u64 {
    ((bound + 1e-9) * QUANTA_PER_UNIT as f64).floor() as u64
}

/// `quanta` in power units, for output: a division, so 8100 quanta
/// prints as `8.1`.
#[must_use]
pub fn units(quanta: u64) -> f64 {
    quanta as f64 / QUANTA_PER_UNIT as f64
}

/// A power field's serialized form: `quanta` in power units.
#[must_use]
pub fn power_value(quanta: u64) -> serde::Value {
    units(quanta).to_value()
}

/// Reads a power field written by [`power_value`] back into quanta.
///
/// # Errors
///
/// A value that is not a number, or not a whole number of quanta.
pub fn power_from_value(value: &serde::Value) -> Result<u64, serde::Error> {
    let power = f64::from_value(value)?;
    quanta(power).ok_or_else(|| {
        serde::Error::custom(format!("power {power} is not a whole number of quanta"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_powers_are_whole_quanta() {
        for (p, q) in [
            (0.2, 200),
            (1.7, 1700),
            (2.5, 2500),
            (2.7, 2700),
            (8.1, 8100),
        ] {
            assert_eq!(quanta(p), Some(q));
            assert_eq!(units(q), p);
        }
        assert_eq!(units(8100 * 2 + 2500), 18.7);
    }

    #[test]
    fn off_lattice_and_invalid_powers_are_refused() {
        for p in [0.0005, 0.1 + 0.2, -1.0, f64::NAN, f64::INFINITY, 5e6] {
            assert_eq!(quanta(p), None, "{p}");
        }
        assert_eq!(quanta(0.0), Some(0));
    }

    #[test]
    fn bounds_round_down_past_the_tolerance() {
        assert_eq!(bound_quanta(25.0), 25_000);
        assert_eq!(bound_quanta(12.3456), 12_345);
        assert_eq!(bound_quanta(2.5 - 1e-12), 2_500);
        assert_eq!(bound_quanta(2.5 - 1e-6), 2_499);
        assert_eq!(bound_quanta(f64::INFINITY), u64::MAX);
        assert_eq!(bound_quanta(0.0), 0);
    }

    #[test]
    fn serialized_powers_are_power_units() {
        assert_eq!(power_value(8_100), serde::Value::Float(8.1));
        assert_eq!(power_from_value(&power_value(8_100)), Ok(8_100));
        assert!(power_from_value(&serde::Value::Float(2.5005)).is_err());
    }
}
