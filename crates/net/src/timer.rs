//! Hashed timer wheel for connection deadlines.
//!
//! Deadlines in the serve tier are coarse (tens of milliseconds to
//! seconds) and frequently cancelled — most requests complete long
//! before their deadline. A hashed wheel gives O(1) insert and cancel
//! and amortized-cheap expiry scans: each timer hashes into one of
//! [`SLOTS`] buckets by `deadline / tick`, and
//! [`TimerWheel::advance`] only scans the buckets the clock hand
//! actually passed. Entries keep their absolute deadline, so a timer
//! further than one wheel revolution away simply stays in its bucket
//! until a lap on which it is genuinely due.

use std::time::{Duration, Instant};

const SLOTS: usize = 256;

/// Stable handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

#[derive(Debug)]
struct Entry<T> {
    id: TimerId,
    deadline: Instant,
    payload: T,
}

/// A hashed timer wheel (see module docs). `T` is the payload returned
/// when a timer fires — the reactor stores connection tokens.
#[derive(Debug)]
pub(crate) struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    tick: Duration,
    origin: Instant,
    /// Last tick index fully processed by `advance`.
    cursor: u64,
    next_id: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with the given tick granularity (the firing
    /// resolution; deadlines are never fired early, and at most one
    /// tick late relative to the `now` passed to `advance`).
    #[must_use]
    pub(crate) fn new(now: Instant, tick: Duration) -> TimerWheel<T> {
        assert!(tick > Duration::ZERO, "tick must be positive");
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            tick,
            origin: now,
            cursor: 0,
            next_id: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.origin);
        // Integer division truncates: a deadline lands in the tick it
        // falls within, and fires when the cursor passes that tick.
        (since.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Schedules `payload` to fire once `advance` is called with a
    /// `now` at or past `deadline`.
    pub(crate) fn insert(&mut self, deadline: Instant, payload: T) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        let slot = (self.tick_of(deadline) as usize) % SLOTS;
        self.slots[slot].push(Entry {
            id,
            deadline,
            payload,
        });
        self.len += 1;
        id
    }

    /// Cancels a pending timer; returns its payload, or `None` if it
    /// already fired or was cancelled.
    pub(crate) fn cancel(&mut self, id: TimerId) -> Option<T> {
        for slot in &mut self.slots {
            if let Some(idx) = slot.iter().position(|e| e.id == id) {
                self.len -= 1;
                return Some(slot.swap_remove(idx).payload);
            }
        }
        None
    }

    /// Moves the wheel hand to `now`, appending every due payload to
    /// `expired` (unspecified order across timers due in the same
    /// sweep).
    pub(crate) fn advance(&mut self, now: Instant, expired: &mut Vec<T>) {
        let target = self.tick_of(now);
        if target < self.cursor && self.len == 0 {
            return;
        }
        // Scan each slot the hand passes; a full revolution caps the
        // work at SLOTS scans no matter how far the clock jumped.
        let steps = (target.saturating_sub(self.cursor) + 1).min(SLOTS as u64);
        for step in 0..steps {
            let slot = ((self.cursor + step) as usize) % SLOTS;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline <= now {
                    expired.push(bucket.swap_remove(i).payload);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = target;
    }

    /// Earliest pending deadline, for sizing the poll timeout. O(n) in
    /// pending timers — acceptable at serve-tier connection counts
    /// (each connection holds at most one deadline timer).
    #[must_use]
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flat_map(|s| s.iter().map(|e| e.deadline))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(4));
        wheel.insert(t0 + ms(20), "a");
        let mut expired = Vec::new();
        wheel.advance(t0 + ms(19), &mut expired);
        assert!(expired.is_empty(), "not due yet");
        wheel.advance(t0 + ms(20), &mut expired);
        assert_eq!(expired, vec!["a"]);
        assert_eq!(wheel.len, 0);
    }

    #[test]
    fn cancel_prevents_firing_and_returns_payload() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(4));
        let id = wheel.insert(t0 + ms(10), 42);
        assert_eq!(wheel.cancel(id), Some(42));
        assert_eq!(wheel.cancel(id), None, "second cancel is a no-op");
        let mut expired = Vec::new();
        wheel.advance(t0 + ms(100), &mut expired);
        assert!(expired.is_empty());
    }

    #[test]
    fn far_deadline_survives_a_full_revolution() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(1));
        // SLOTS=256 × 1ms tick → one revolution is 256ms. A 300ms
        // deadline shares a bucket with tick 300-256=44.
        wheel.insert(t0 + ms(300), "late");
        let mut expired = Vec::new();
        wheel.advance(t0 + ms(44), &mut expired);
        assert!(
            expired.is_empty(),
            "same bucket, earlier lap: must not fire"
        );
        wheel.advance(t0 + ms(299), &mut expired);
        assert!(expired.is_empty());
        wheel.advance(t0 + ms(301), &mut expired);
        assert_eq!(expired, vec!["late"]);
    }

    #[test]
    fn clock_jump_past_many_slots_fires_everything_due() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0, ms(1));
        for i in 0..1000u64 {
            wheel.insert(t0 + ms(i), i);
        }
        let mut expired = Vec::new();
        wheel.advance(t0 + ms(5000), &mut expired);
        expired.sort_unstable();
        assert_eq!(expired.len(), 1000);
        assert_eq!(expired[0], 0);
        assert_eq!(expired[999], 999);
        assert_eq!(wheel.len, 0);
    }

    #[test]
    fn next_deadline_tracks_the_minimum() {
        let t0 = Instant::now();
        let mut wheel: TimerWheel<()> = TimerWheel::new(t0, ms(4));
        assert_eq!(wheel.next_deadline(), None);
        wheel.insert(t0 + ms(50), ());
        let early = wheel.insert(t0 + ms(10), ());
        assert_eq!(wheel.next_deadline(), Some(t0 + ms(10)));
        wheel.cancel(early);
        assert_eq!(wheel.next_deadline(), Some(t0 + ms(50)));
    }
}
