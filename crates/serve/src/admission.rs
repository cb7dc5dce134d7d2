//! Per-client admission control: token-bucket rate limiting.
//!
//! The reactor front end gives every connection a [`TokenBucket`];
//! each `synth` request takes one token. Tokens refill continuously at
//! the configured rate up to the burst capacity, so short bursts pass
//! while a sustained flood is clipped to the steady rate — the excess
//! answered with a well-formed `rate_limited` error, never a dropped
//! connection.
//!
//! Time is always passed in (`now: Instant`), never read internally, so
//! refill behaviour is testable under a mocked clock.

use std::time::Instant;

/// A continuous-refill token bucket (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    /// Maximum tokens the bucket holds — the burst allowance.
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` with room for `burst`
    /// tokens (clamped to ≥ 1 so a fresh bucket always admits one
    /// request). Starts full.
    #[must_use]
    pub(crate) fn new(rate_per_sec: f64, burst: f64, now: Instant) -> TokenBucket {
        let capacity = burst.max(1.0);
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_sec: rate_per_sec.max(0.0),
            last: now,
        }
    }

    /// Refills for the time elapsed since the last call, then takes one
    /// token if available. `false` means rate-limited.
    pub(crate) fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_passes_then_flood_is_clipped() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 3.0, t0);
        // The initial burst of 3 is admitted back-to-back…
        assert!(bucket.try_take(t0));
        assert!(bucket.try_take(t0));
        assert!(bucket.try_take(t0));
        // …and the fourth request at the same instant is clipped.
        assert!(!bucket.try_take(t0));
    }

    #[test]
    fn tokens_refill_under_a_mocked_clock() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 1.0, t0);
        assert!(bucket.try_take(t0));
        assert!(!bucket.try_take(t0), "bucket emptied");
        // 50ms at 10/s refills 0.5 tokens — still not enough.
        assert!(!bucket.try_take(t0 + Duration::from_millis(50)));
        // 60ms more crosses 1.0 (0.5 + 0.6 ≥ 1).
        assert!(bucket.try_take(t0 + Duration::from_millis(110)));
        assert!(!bucket.try_take(t0 + Duration::from_millis(110)));
    }

    #[test]
    fn refill_never_exceeds_burst_capacity() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(1000.0, 2.0, t0);
        // An hour idle: still only `burst` tokens banked.
        let later = t0 + Duration::from_secs(3600);
        assert!(bucket.try_take(later));
        assert!(bucket.try_take(later));
        assert!(!bucket.try_take(later));
    }

    #[test]
    fn sustained_rate_matches_refill_rate() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(100.0, 1.0, t0);
        // 1000 attempts over one simulated second at 1ms spacing:
        // close to 100 should pass (one initial + ~99 refilled; float
        // accumulation may cost a refill interval one extra tick, so
        // the band is a little loose on the low side).
        let admitted = (0..1000)
            .filter(|i| bucket.try_take(t0 + Duration::from_millis(*i)))
            .count();
        assert!(
            (90..=101).contains(&admitted),
            "admitted {admitted}, want ~100"
        );
    }

    #[test]
    fn zero_rate_admits_only_the_burst_forever() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(0.0, 2.0, t0);
        assert!(bucket.try_take(t0));
        assert!(bucket.try_take(t0));
        assert!(!bucket.try_take(t0 + Duration::from_secs(3600)));
        assert!(bucket.tokens < 1.0);
    }

    #[test]
    fn clock_going_backwards_is_harmless() {
        let t0 = Instant::now() + Duration::from_secs(10);
        let mut bucket = TokenBucket::new(10.0, 1.0, t0);
        assert!(bucket.try_take(t0));
        // An earlier `now` must not mint tokens or panic.
        assert!(!bucket.try_take(t0 - Duration::from_secs(5)));
    }
}
