//! Power-invariance intervals: the constant bounds over which a run
//! decides every power comparison the same way.

/// The integer interval `[lo, hi)` of bound quanta over which a run's
/// power comparisons all decide as they did.
///
/// Under a constant budget `P`, every power test of the schedulers and
/// of the synthesis kernel is an exact comparison `x ≤ Pq`, where `x`
/// is a sum of module powers in quanta and
/// `Pq = `[`bound_quanta`](pchls_fulib::bound_quanta)`(P)` is the one
/// place `P` is read. A run records `lo`, the largest `x` that passed,
/// and `hi`, the smallest `x` that failed. Any bound `P′` with
/// `lo ≤ bound_quanta(P′) < hi` takes every branch the same way, so it
/// reaches the same answer, and its run records the same interval.
///
/// `hi == u64::MAX` means no comparison failed: the interval is
/// unbounded above and covers the infinite bound too. An envelope
/// budget compares each cycle against its own bound, so a record taken
/// under one describes no single threshold and is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerInterval {
    /// Largest compared sum that passed (0 when none did).
    pub lo: u64,
    /// Smallest compared sum that failed (`u64::MAX` when none did).
    pub hi: u64,
}

impl Default for PowerInterval {
    fn default() -> PowerInterval {
        PowerInterval::EVERY
    }
}

impl PowerInterval {
    /// The record of a run that compared nothing: every bound.
    pub const EVERY: PowerInterval = PowerInterval {
        lo: 0,
        hi: u64::MAX,
    };

    /// Records one comparison `x ≤ Pq` and its outcome.
    #[inline]
    pub(crate) fn record(&mut self, x: u64, passed: bool) {
        if passed {
            self.lo = self.lo.max(x);
        } else {
            self.hi = self.hi.min(x);
        }
    }

    /// Adds every comparison `other` recorded.
    #[inline]
    pub fn merge(&mut self, other: PowerInterval) {
        self.lo = self.lo.max(other.lo);
        self.hi = self.hi.min(other.hi);
    }

    /// Whether a run at bound quanta `pq` decides every recorded
    /// comparison as the recording run did.
    #[must_use]
    pub fn covers(&self, pq: u64) -> bool {
        self.lo <= pq && (pq < self.hi || !self.is_bounded())
    }

    /// Whether some comparison failed, so that the interval ends.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.hi != u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_narrow_the_interval_from_both_ends() {
        let mut seen = PowerInterval::EVERY;
        assert!(seen.covers(0) && seen.covers(u64::MAX));
        seen.record(8_100, true);
        seen.record(2_500, true);
        seen.record(18_700, false);
        assert_eq!(
            seen,
            PowerInterval {
                lo: 8_100,
                hi: 18_700
            }
        );
        assert!(seen.covers(8_100) && seen.covers(18_699));
        assert!(!seen.covers(8_099) && !seen.covers(18_700));
        assert!(seen.is_bounded());
    }

    #[test]
    fn an_unbounded_interval_covers_the_infinite_bound() {
        let mut seen = PowerInterval::EVERY;
        seen.record(5_000, true);
        assert!(!seen.is_bounded());
        assert!(seen.covers(u64::MAX));
        let mut other = PowerInterval::EVERY;
        other.record(9_000, false);
        seen.merge(other);
        assert_eq!(
            seen,
            PowerInterval {
                lo: 5_000,
                hi: 9_000
            }
        );
        assert!(!seen.covers(u64::MAX));
    }
}
