//! Per-cycle power accounting: profiles and incremental ledgers.

use std::cell::Cell;

use crate::budget::PowerBudget;
use crate::interval::PowerInterval;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

use pchls_cdfg::NodeId;
use pchls_fulib::{bound_quanta, units};

/// The power drawn in every clock cycle of a schedule, held in quanta.
///
/// This is the quantity Figure 1 of the paper plots: the per-cycle profile
/// whose spikes shorten battery life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerProfile {
    per_cycle: Vec<u64>,
}

impl PowerProfile {
    /// Computes the profile of `schedule` under `timing`.
    #[must_use]
    pub fn of(schedule: &Schedule, timing: &TimingMap) -> PowerProfile {
        let mut per_cycle = vec![0; schedule.latency(timing) as usize];
        for (i, &s) in schedule.starts().iter().enumerate() {
            let id = NodeId::new(i as u32);
            let t = timing.of(id);
            for c in s..s + t.delay {
                per_cycle[c as usize] += t.power;
            }
        }
        PowerProfile { per_cycle }
    }

    /// Power drawn in each cycle, indexed from cycle 0, in power units.
    #[must_use]
    pub fn per_cycle(&self) -> Vec<f64> {
        self.per_cycle.iter().map(|&q| units(q)).collect()
    }

    /// Number of cycles covered (the schedule latency).
    #[must_use]
    pub fn cycles(&self) -> u32 {
        self.per_cycle.len() as u32
    }

    /// The maximum power drawn in any single cycle, in quanta.
    #[must_use]
    pub(crate) fn peak_quanta(&self) -> u64 {
        self.per_cycle.iter().copied().max().unwrap_or(0)
    }

    /// The maximum power drawn in any single cycle, in power units.
    #[must_use]
    pub fn peak(&self) -> f64 {
        units(self.peak_quanta())
    }

    /// Peak-to-average ratio, the "spikiness" the paper's Figure 1
    /// illustrates. Returns 0 for an empty or all-zero profile.
    #[must_use]
    pub fn peak_to_average(&self) -> f64 {
        let energy: u64 = self.per_cycle.iter().sum();
        if energy == 0 {
            0.0
        } else {
            self.peak_quanta() as f64 * self.per_cycle.len() as f64 / energy as f64
        }
    }

    /// The first cycle whose power exceeds the budget's bound *for that
    /// cycle*, if any, together with the power drawn there (in quanta).
    /// Every comparison made is recorded in `seen`.
    #[must_use]
    pub(crate) fn first_violation(
        &self,
        budget: &PowerBudget,
        seen: &mut PowerInterval,
    ) -> Option<(u32, u64)> {
        for (c, &p) in (0u32..).zip(&self.per_cycle) {
            let fits = p <= bound_quanta(budget.bound_at(c));
            seen.record(p, fits);
            if !fits {
                return Some((c, p));
            }
        }
        None
    }

    /// Renders the profile as a rows-of-`#` ASCII bar chart, one line per
    /// cycle — handy for eyeballing Figure 1-style comparisons.
    #[must_use]
    pub fn to_ascii(&self, width: usize) -> String {
        let peak = self.peak();
        let mut out = String::new();
        for (c, p) in self.per_cycle().into_iter().enumerate() {
            let bars = if peak > 0.0 {
                ((p / peak) * width as f64).round() as usize
            } else {
                0
            };
            out.push_str(&format!("{c:>4} |{} {p:.1}\n", "#".repeat(bars)));
        }
        out
    }

    /// As [`to_ascii`](PowerProfile::to_ascii), but overlaying the
    /// budget envelope: each line marks the cycle's bound with `|` at
    /// its scaled position (so a stepwise or sagging budget is visible
    /// as a moving wall, not a single scalar peak line), annotates the
    /// bound value, and flags cycles whose draw exceeds their bound with
    /// `!!`. Infinite bounds render without a wall.
    #[must_use]
    pub fn to_ascii_under(&self, width: usize, budget: &PowerBudget) -> String {
        // One scale for both bars and walls, so their positions compare.
        let finite_peak = (0..self.cycles())
            .map(|c| budget.bound_at(c))
            .filter(|b| b.is_finite())
            .fold(self.peak(), f64::max);
        let mut out = String::new();
        for (c, &q) in self.per_cycle.iter().enumerate() {
            let (p, bound) = (units(q), budget.bound_at(c as u32));
            let scale = |v: f64| {
                if finite_peak > 0.0 {
                    ((v / finite_peak) * width as f64).round() as usize
                } else {
                    0
                }
            };
            let bars = scale(p).min(width);
            let mut row = vec![b' '; width + 1];
            for cell in row.iter_mut().take(bars) {
                *cell = b'#';
            }
            if bound.is_finite() {
                row[scale(bound).min(width)] = b'|';
            }
            let row = String::from_utf8(row).expect("ASCII row");
            let mark = if q > bound_quanta(bound) { " !!" } else { "" };
            let bound_txt = if bound.is_finite() {
                format!(" (P<{bound:.1})")
            } else {
                String::new()
            };
            out.push_str(&format!("{c:>4} {row} {p:.1}{bound_txt}{mark}\n"));
        }
        out
    }
}

/// An incremental per-cycle power ledger over a fixed budget envelope,
/// used by the power-constrained schedulers and the synthesis loop to
/// reserve and release execution intervals.
///
/// Everything is held in exact integer quanta
/// ([`pchls_fulib::quanta`]). Each cycle's bound is converted once,
/// when the ledger is built ([`pchls_fulib::bound_quanta`], the single
/// place a bound is rounded), and the ledger keeps per-cycle **slack**
/// `slack[c] = bound[c] − reserved[c]`. An operation drawing `power`
/// fits a window iff `power ≤ slack` at the window's minimum slack; a
/// constant budget is simply an envelope whose bounds are all equal.
/// Integer arithmetic makes [`release`](PowerLedger::release) the exact
/// inverse of [`reserve`](PowerLedger::reserve), so rollback needs no
/// saved copies.
///
/// [`PowerLedger::earliest_fit`] jumps past each infeasible window's
/// **rightmost** violating cycle (every start whose window covers that
/// cycle is infeasible, so the search resumes just past it).
///
/// Every probe also records the bound comparison it decided in the
/// ledger's [`PowerInterval`] ([`interval`](PowerLedger::interval)):
/// `power ≤ slack[c]` is `x ≤ bound` for `x = power + reserved[c]`. The
/// record is not part of the ledger's state: equality ignores it.
///
/// [`NaivePowerLedger`] retains the cycle-scanning implementation as the
/// differential-testing reference.
#[derive(Debug, Clone)]
pub struct PowerLedger {
    /// The bound of each cycle of the horizon, in quanta.
    bounds: Vec<u64>,
    /// `slack[c] = bounds[c] − reserved[c]`.
    slack: Vec<u64>,
    /// The largest bound of the horizon (the opening bound for an empty
    /// horizon): the can-never-fit quick reject.
    peak: u64,
    /// The comparisons decided so far.
    seen: Cell<PowerInterval>,
}

impl PartialEq for PowerLedger {
    fn eq(&self, other: &PowerLedger) -> bool {
        (&self.bounds, &self.slack, self.peak) == (&other.bounds, &other.slack, other.peak)
    }
}

impl Eq for PowerLedger {}

/// `budget`'s bounds over `0..horizon` in quanta, plus their peak (the
/// opening bound for an empty horizon).
fn bounds_in_quanta(budget: &PowerBudget, horizon: u32) -> (Vec<u64>, u64) {
    let bounds: Vec<u64> = (0..horizon)
        .map(|c| bound_quanta(budget.bound_at(c)))
        .collect();
    let peak = bounds
        .iter()
        .copied()
        .max()
        .unwrap_or_else(|| bound_quanta(budget.bound_at(0)));
    (bounds, peak)
}

impl PowerLedger {
    /// Creates an empty ledger over `horizon` cycles under `budget`.
    #[must_use]
    pub fn under(horizon: u32, budget: &PowerBudget) -> PowerLedger {
        let (bounds, peak) = bounds_in_quanta(budget, horizon);
        PowerLedger {
            slack: bounds.clone(),
            bounds,
            peak,
            seen: Cell::new(PowerInterval::EVERY),
        }
    }

    /// Every bound comparison this ledger has decided. Under a constant
    /// budget, a ledger at any bound the interval covers would have
    /// answered every probe alike; under an envelope it means nothing.
    #[must_use]
    pub fn interval(&self) -> PowerInterval {
        self.seen.get()
    }

    /// Records the comparison `power ≤ slack` (one cycle's, or a
    /// window's minimum) as `x ≤ peak` with `x = power + (peak − slack)`,
    /// the power the cycle would draw. Saturating: under an envelope with
    /// an infinite phase the sum can overflow, and such a record is
    /// meaningless anyway.
    #[inline]
    fn note(&self, power: u64, slack: u64, passed: bool) {
        let mut seen = self.seen.get();
        seen.record(power.saturating_add(self.peak - slack), passed);
        self.seen.set(seen);
    }

    /// Runs `probe`, then forgets every comparison it recorded here: for
    /// a check that re-derives answers the run already has, and must not
    /// narrow the run's interval.
    pub fn unrecorded<R>(&self, probe: impl FnOnce() -> R) -> R {
        let seen = self.seen.get();
        let out = probe();
        self.seen.set(seen);
        out
    }

    /// Whether an operation drawing `power` quanta fits under the peak
    /// bound at all — the can-never-fit quick reject, recorded.
    #[must_use]
    pub fn admits(&self, power: u64) -> bool {
        let admits = power <= self.peak;
        let mut seen = self.seen.get();
        seen.record(power, admits);
        self.seen.set(seen);
        admits
    }

    /// Releases every reservation. The record of comparisons is kept.
    pub fn clear(&mut self) {
        self.slack.copy_from_slice(&self.bounds);
    }

    /// Replaces every reservation with `held`'s, built over the same
    /// horizon under the same envelope, in O(horizon). Records one
    /// passing comparison for them, the held peak `peak − s`, `s` the
    /// smallest slack over the cycles `held` reserves power in: under a
    /// constant budget, the largest comparison that the
    /// [`reserve_locked`](crate::reserve_locked) pass building `held`
    /// recorded.
    ///
    /// # Panics
    ///
    /// Panics if the horizons differ.
    pub fn load(&mut self, held: &PowerLedger) {
        assert_eq!(self.horizon(), held.horizon(), "load across horizons");
        debug_assert_eq!(self.bounds, held.bounds, "load across envelopes");
        self.slack.copy_from_slice(&held.slack);
        self.note_held(held);
    }

    /// As [`load`](PowerLedger::load), time-mirrored: cycle `c` takes
    /// the reservation of `held`'s cycle `horizon − 1 − c`. This ledger
    /// is built under `held`'s envelope mirrored over the horizon, as the
    /// power-constrained ALAP's reversed placement runs.
    ///
    /// # Panics
    ///
    /// Panics if the horizons differ.
    pub fn load_mirrored(&mut self, held: &PowerLedger) {
        assert_eq!(self.horizon(), held.horizon(), "load across horizons");
        debug_assert!(
            self.bounds.iter().eq(held.bounds.iter().rev()),
            "mirrored load across envelopes"
        );
        for (slack, &h) in self.slack.iter_mut().zip(held.slack.iter().rev()) {
            *slack = h;
        }
        self.note_held(held);
    }

    /// Records the one comparison a load stands for: the held peak
    /// `x = peak − s` passed, `s` the smallest slack over the cycles
    /// `held` reserves power in (nothing when it reserves none).
    ///
    /// A [`reserve_locked`](crate::reserve_locked) pass builds `held`
    /// and records only passes. Under a constant budget its largest is
    /// this one: each lock records the largest usage its window reaches
    /// once it is reserved, which is never above the final peak usage,
    /// and the last lock covering the fullest cycle records exactly that
    /// cycle's final usage. Under an envelope a cycle covered only by
    /// zero-power locks can record more, and such a record means nothing
    /// anyway (see [`PowerInterval`]).
    fn note_held(&self, held: &PowerLedger) {
        let min = held
            .bounds
            .iter()
            .zip(&held.slack)
            .filter(|&(bound, slack)| slack < bound)
            .map(|(_, &slack)| slack)
            .min();
        if let Some(min) = min {
            self.note(0, min, true);
        }
    }

    /// The scheduling horizon in cycles.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.slack.len() as u32
    }

    /// Power already reserved in `cycle`, in quanta (0 beyond the
    /// horizon).
    #[must_use]
    pub fn used(&self, cycle: u32) -> u64 {
        let c = cycle as usize;
        self.bounds.get(c).map_or(0, |b| b - self.slack[c])
    }

    /// The smallest slack over cycles `[l, r)` (`u64::MAX` when empty).
    fn min_slack(&self, l: usize, r: usize) -> u64 {
        self.slack[l..r].iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Whether an operation drawing `power` quanta per cycle can execute
    /// during `[start, start + delay)` without the budget overflowing,
    /// entirely within the horizon.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: u64) -> bool {
        let (s, end) = (start as usize, start as usize + delay as usize);
        if end > self.slack.len() {
            return false;
        }
        if s == end {
            return true;
        }
        let min = self.min_slack(s, end);
        let fits = power <= min;
        self.note(power, min, fits);
        fits
    }

    /// Reserves `power` in every cycle of `[start, start + delay)`.
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit (callers must check
    /// [`PowerLedger::fits`] first); reserving blindly would corrupt the
    /// budget accounting.
    pub fn reserve(&mut self, start: u32, delay: u32, power: u64) {
        let (s, e) = (start as usize, start as usize + delay as usize);
        assert!(
            e <= self.slack.len() && power <= self.min_slack(s, e),
            "reserve([{start}, {}), {power}) violates the budget",
            start + delay
        );
        for slack in &mut self.slack[s..e] {
            *slack -= power;
        }
    }

    /// Releases a previous reservation, exactly: the ledger returns to
    /// the state it had before the matching [`PowerLedger::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if the interval leaves the horizon or releases more power
    /// than some cycle holds.
    pub fn release(&mut self, start: u32, delay: u32, power: u64) {
        let (s, e) = (start as usize, start as usize + delay as usize);
        assert!(e <= self.slack.len(), "release beyond the horizon");
        for c in s..e {
            assert!(
                self.bounds[c] - self.slack[c] >= power,
                "release of power never reserved"
            );
            self.slack[c] += power;
        }
    }

    /// The rightmost cycle in `[l, r)` (non-empty) whose slack is below
    /// `power`, if any. The minimum-slack pre-check settles the clean
    /// window (every final probe of an offset search) without a
    /// positional scan. Recorded: the violating cycle failed, and every
    /// cycle after it passed.
    fn last_violation(&self, l: usize, r: usize, power: u64) -> Option<usize> {
        let min = self.min_slack(l, r);
        if power <= min {
            self.note(power, min, true);
            return None;
        }
        let v = l + self.slack[l..r]
            .iter()
            .rposition(|&slack| slack < power)
            .expect("the minimum slack is below power");
        self.note(power, self.slack[v], false);
        if v + 1 < r {
            self.note(power, self.min_slack(v + 1, r), true);
        }
        Some(v)
    }

    /// The first covered cycle of `[start, start + delay)` whose own
    /// per-cycle check rejects an additional draw of `power` — the
    /// precise counterpart of a failed [`PowerLedger::fits`], used to
    /// point error diagnostics at the violating cycle (and its own
    /// bound) instead of the interval's start. Cycles at or past the
    /// horizon report as the horizon itself (an out-of-range interval
    /// has no in-budget witness).
    #[must_use]
    pub fn first_unfit_cycle(&self, start: u32, delay: u32, power: u64) -> Option<u32> {
        if self.fits(start, delay, power) {
            return None;
        }
        let end = start.saturating_add(delay);
        if end > self.horizon() {
            return Some(self.horizon());
        }
        let s = start as usize;
        let first = s + self.slack[s..end as usize]
            .iter()
            .position(|&slack| slack < power)
            .expect("fits failed inside the horizon");
        self.note(power, self.slack[first], false);
        if first > s {
            self.note(power, self.min_slack(s, first), true);
        }
        Some(first as u32)
    }

    /// The earliest start `s ≥ min_start` such that `[s, s+delay)` fits,
    /// or `None` if no such start exists within the horizon.
    ///
    /// This is exactly the paper's offset search — "if there is power
    /// available in the execution time interval … schedule, otherwise
    /// increase the offset by one" — but instead of re-scanning cycle by
    /// cycle, each failed probe jumps past its rightmost violating cycle
    /// `v` (every start in `[s, v]` keeps `v` inside its window, so all
    /// of them are infeasible and the returned start is identical to the
    /// naive scan's).
    #[must_use]
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: u64) -> Option<u32> {
        self.earliest_fit_by(min_start, delay, power, self.horizon())
    }

    /// As [`PowerLedger::earliest_fit`], but only considering starts
    /// whose interval also finishes by `latest_finish` — the bounded
    /// offset search the synthesis kernel runs against each candidate's
    /// deadline, without scanning the rest of the horizon.
    #[must_use]
    pub fn earliest_fit_by(
        &self,
        min_start: u32,
        delay: u32,
        power: u64,
        latest_finish: u32,
    ) -> Option<u32> {
        if !self.admits(power) {
            return None;
        }
        let bound = latest_finish.min(self.horizon());
        if delay == 0 {
            return (min_start <= bound).then_some(min_start);
        }
        let mut s = min_start;
        while s + delay <= bound {
            match self.last_violation(s as usize, (s + delay) as usize, power) {
                None => return Some(s),
                Some(v) => s = v as u32 + 1,
            }
        }
        None
    }
}

/// The original cycle-scanning power ledger, kept as the reference
/// implementation the slack-based [`PowerLedger`] is differential-tested
/// against (`crates/sched/tests/properties.rs`). Every operation has the
/// naive complexity the paper's pseudocode implies: O(delay) probes,
/// O(horizon × delay) offset searches, each cycle checked as
/// `used + power ≤ bound` from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaivePowerLedger {
    used: Vec<u64>,
    bounds: Vec<u64>,
    peak: u64,
}

impl NaivePowerLedger {
    /// As [`PowerLedger::under`].
    #[must_use]
    pub fn under(horizon: u32, budget: &PowerBudget) -> NaivePowerLedger {
        let (bounds, peak) = bounds_in_quanta(budget, horizon);
        NaivePowerLedger {
            used: vec![0; horizon as usize],
            bounds,
            peak,
        }
    }

    /// As [`PowerLedger::horizon`].
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.used.len() as u32
    }

    /// As [`PowerLedger::used`].
    #[must_use]
    pub fn used(&self, cycle: u32) -> u64 {
        self.used.get(cycle as usize).copied().unwrap_or(0)
    }

    /// As [`PowerLedger::fits`], by scanning every cycle.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: u64) -> bool {
        let end = start as usize + delay as usize;
        end <= self.used.len()
            && (start as usize..end).all(|c| {
                self.used[c]
                    .checked_add(power)
                    .is_some_and(|u| u <= self.bounds[c])
            })
    }

    /// As [`PowerLedger::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit.
    pub fn reserve(&mut self, start: u32, delay: u32, power: u64) {
        assert!(
            self.fits(start, delay, power),
            "reserve([{start}, {}), {power}) violates the budget",
            start + delay
        );
        for c in start..start + delay {
            self.used[c as usize] += power;
        }
    }

    /// As [`PowerLedger::release`].
    ///
    /// # Panics
    ///
    /// As [`PowerLedger::release`].
    pub fn release(&mut self, start: u32, delay: u32, power: u64) {
        for c in start..start + delay {
            let u = &mut self.used[c as usize];
            *u = u
                .checked_sub(power)
                .expect("release of power never reserved");
        }
    }

    /// As [`PowerLedger::earliest_fit`], by increasing the offset one
    /// cycle at a time.
    #[must_use]
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: u64) -> Option<u32> {
        if power > self.peak {
            return None;
        }
        let horizon = self.horizon();
        let mut s = min_start;
        while s + delay <= horizon {
            if self.fits(s, delay, power) {
                return Some(s);
            }
            s += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::OpTiming;

    fn constant(horizon: u32, bound: f64) -> PowerLedger {
        PowerLedger::under(horizon, &PowerBudget::constant(bound))
    }

    #[test]
    fn ledger_reserve_release_round_trip() {
        let mut l = constant(10, 5.0);
        assert!(l.fits(2, 3, 4_000));
        l.reserve(2, 3, 4_000);
        assert!(!l.fits(3, 1, 2_000));
        assert!(l.fits(3, 1, 1_000));
        l.release(2, 3, 4_000);
        assert!(l.fits(3, 1, 5_000));
        assert_eq!(l, constant(10, 5.0), "release is exact");
    }

    #[test]
    fn earliest_fit_skips_busy_cycles() {
        let mut l = constant(10, 5.0);
        l.reserve(0, 4, 3_000);
        // 3 power/cycle for 2 cycles cannot fit until cycle 4.
        assert_eq!(l.earliest_fit(0, 2, 3_000), Some(4));
        // 2 power/cycle fits immediately.
        assert_eq!(l.earliest_fit(0, 2, 2_000), Some(0));
    }

    #[test]
    fn earliest_fit_rejects_oversized_ops() {
        let l = constant(10, 5.0);
        assert_eq!(l.earliest_fit(0, 1, 6_000), None);
    }

    #[test]
    fn earliest_fit_respects_horizon() {
        let l = constant(4, 5.0);
        assert_eq!(l.earliest_fit(3, 2, 1_000), None);
        assert_eq!(l.earliest_fit(3, 1, 1_000), Some(3));
    }

    #[test]
    fn infinite_budget_always_fits() {
        let mut l = constant(4, f64::INFINITY);
        assert!(l.fits(0, 4, u64::from(u32::MAX)));
        l.reserve(0, 4, u64::from(u32::MAX));
        assert!(l.fits(0, 4, u64::from(u32::MAX)));
    }

    #[test]
    fn profile_statistics() {
        let s = Schedule::new(vec![0, 0, 1]);
        let t = TimingMap::from_entries(vec![
            OpTiming {
                delay: 1,
                power: 2_000,
            },
            OpTiming {
                delay: 2,
                power: 3_000,
            },
            OpTiming {
                delay: 1,
                power: 1_000,
            },
        ]);
        let p = PowerProfile::of(&s, &t);
        assert_eq!(p.per_cycle(), vec![5.0, 4.0]);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.peak(), 5.0);
        assert!((p.peak_to_average() - 5.0 / 4.5).abs() < 1e-12);
        let mut seen = PowerInterval::EVERY;
        assert_eq!(
            p.first_violation(&PowerBudget::constant(4.5), &mut seen),
            Some((0, 5_000))
        );
        assert_eq!(seen, PowerInterval { lo: 0, hi: 5_000 });
        let mut seen = PowerInterval::EVERY;
        assert_eq!(
            p.first_violation(&PowerBudget::constant(5.0), &mut seen),
            None
        );
        assert_eq!(
            seen,
            PowerInterval {
                lo: 5_000,
                hi: u64::MAX
            }
        );
    }

    /// A ledger under the constant bound 10.0 (10 000 quanta) with
    /// 7.5, 5.0 and 9.0 reserved in cycles 1, 2 and 3.
    fn reserved() -> PowerLedger {
        let mut l = constant(8, 10.0);
        l.reserve(1, 1, 7_500);
        l.reserve(2, 1, 5_000);
        l.reserve(3, 1, 9_000);
        assert_eq!(
            l.interval(),
            PowerInterval::EVERY,
            "reserving compares nothing"
        );
        l
    }

    fn interval(lo: u64, hi: u64) -> PowerInterval {
        PowerInterval { lo, hi }
    }

    #[test]
    fn fits_records_the_window_peak() {
        // A 3.0 draw in cycles 1–2 would make 10.5 in cycle 1: one
        // comparison, failed at its largest sum.
        let l = reserved();
        assert!(!l.fits(1, 2, 3_000));
        assert_eq!(l.interval(), interval(0, 10_500));
        let l = reserved();
        assert!(l.fits(4, 3, 3_000));
        assert_eq!(l.interval(), interval(3_000, u64::MAX));
        // An empty window compares nothing.
        let l = reserved();
        assert!(l.fits(1, 0, 3_000));
        assert_eq!(l.interval(), PowerInterval::EVERY);
    }

    #[test]
    fn first_unfit_cycle_records_the_cycles_before_the_witness() {
        // Cycle 0 takes the draw (3.0), cycle 1 is the first to refuse
        // it (10.5); the window's largest sum (12.0, cycle 3) is not the
        // witness.
        let l = reserved();
        assert_eq!(l.first_unfit_cycle(0, 4, 3_000), Some(1));
        assert_eq!(l.interval(), interval(3_000, 10_500));
    }

    #[test]
    fn offset_search_records_every_decided_cycle() {
        // Window [0, 3): cycle 1 is the rightmost refusal (10.5), and
        // cycle 2 after it passed (8.0). Window [2, 5): cycle 3 refuses
        // (12.0), cycle 4 passes (3.0). Window [4, 7) fits (3.0). Only
        // the first probe saw cycle 2 pass, so it sets `lo`.
        let l = reserved();
        assert_eq!(l.earliest_fit(0, 3, 3_000), Some(4));
        assert_eq!(l.interval(), interval(8_000, 10_500));
        // Above the peak bound the search stops at the quick reject.
        let l = reserved();
        assert_eq!(l.earliest_fit(0, 1, 11_000), None);
        assert_eq!(l.interval(), interval(0, 11_000));
        assert!(l.admits(2_500));
        assert_eq!(l.interval(), interval(2_500, 11_000));
    }

    #[test]
    fn clearing_keeps_the_record() {
        let mut l = reserved();
        assert!(!l.fits(1, 2, 3_000));
        l.clear();
        assert_eq!(l, constant(8, 10.0));
        assert_eq!(l.interval(), interval(0, 10_500));
    }

    #[test]
    fn loads_copy_the_reservations_and_record_the_held_peak() {
        // `reserved()` holds 9.0 at its fullest cycle (3).
        let held = reserved();
        let mut forward = constant(8, 10.0);
        forward.load(&held);
        assert_eq!(forward, held);
        assert_eq!(forward.interval(), interval(9_000, u64::MAX));
        let mut mirrored = constant(8, 10.0);
        mirrored.load_mirrored(&held);
        assert_eq!(
            (0..8).map(|c| mirrored.used(c)).collect::<Vec<_>>(),
            [0, 0, 0, 0, 9_000, 5_000, 7_500, 0]
        );
        assert_eq!(mirrored.interval(), interval(9_000, u64::MAX));
        // Loading an empty ledger records nothing and releases all.
        forward.load(&constant(8, 10.0));
        assert_eq!(forward, constant(8, 10.0));
        assert_eq!(forward.interval(), interval(9_000, u64::MAX));
    }

    #[test]
    fn unrecorded_probes_leave_the_record_alone() {
        let l = reserved();
        assert!(!l.fits(1, 2, 3_000));
        let before = l.interval();
        let (fit, unfit) = l.unrecorded(|| (l.earliest_fit(0, 3, 3_000), l.admits(11_000)));
        assert_eq!((fit, unfit), (Some(4), false));
        assert_eq!(l.interval(), before);
    }

    #[test]
    fn ascii_chart_has_one_line_per_cycle() {
        let p = PowerProfile {
            per_cycle: vec![1_000, 2_000, 500],
        };
        let chart = p.to_ascii(20);
        assert_eq!(chart.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "violates the budget")]
    fn blind_reserve_panics() {
        let mut l = constant(4, 1.0);
        l.reserve(0, 1, 2_000);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn releasing_unreserved_power_panics() {
        let mut l = constant(4, 1.0);
        l.reserve(0, 2, 500);
        l.release(1, 2, 500);
    }

    #[test]
    fn equal_bound_budgets_build_one_ledger() {
        // However the constant is spelled, the ledger is the same.
        for budget in [
            PowerBudget::steps(vec![(0, 5.0)]),
            PowerBudget::per_cycle(vec![5.0; 10]),
        ] {
            assert_eq!(
                PowerLedger::under(10, &budget),
                constant(10, 5.0),
                "{budget:?}"
            );
        }
    }

    #[test]
    fn envelope_ledger_enforces_each_cycles_own_bound() {
        let budget = PowerBudget::steps(vec![(0, 10.0), (4, 3.0)]);
        let l = PowerLedger::under(8, &budget);
        // 5 power/cycle fits the opening phase but not the tail.
        assert!(l.fits(0, 4, 5_000));
        assert!(!l.fits(2, 4, 5_000)); // crosses into the 3.0 phase
        assert!(!l.fits(4, 2, 5_000));
        assert!(l.fits(4, 2, 3_000));
        // The offset search lands inside whichever phase admits the op.
        assert_eq!(l.earliest_fit(0, 2, 5_000), Some(0));
        assert_eq!(l.earliest_fit(3, 2, 5_000), None);
        assert_eq!(l.earliest_fit(0, 2, 3_000), Some(0));
        // Above the peak bound: nothing ever fits.
        assert_eq!(l.earliest_fit(0, 1, 11_000), None);
    }

    #[test]
    fn envelope_reservations_consume_slack() {
        let budget = PowerBudget::per_cycle(vec![10.0, 10.0, 4.0, 4.0]);
        let mut l = PowerLedger::under(4, &budget);
        l.reserve(0, 4, 3_000);
        assert!(l.fits(0, 2, 7_000));
        assert!(!l.fits(0, 3, 2_000)); // cycle 2 has 1.0 slack left
        assert!(l.fits(2, 2, 1_000));
        let before = l.clone();
        l.reserve(2, 2, 1_000);
        assert!(!l.fits(2, 1, 500));
        assert_eq!(l.used(2), 4_000);
        l.release(2, 2, 1_000);
        assert_eq!(l, before, "release must restore the slack exactly");
        assert!(l.fits(2, 2, 1_000));
    }

    #[test]
    fn envelope_long_windows_answer_per_cycle() {
        // A 200-cycle two-phase envelope probed with 40–100-cycle
        // windows, far longer than any module delay.
        let mut bounds = vec![9.0; 200];
        for b in bounds.iter_mut().skip(100) {
            *b = 4.0;
        }
        let mut l = PowerLedger::under(200, &PowerBudget::per_cycle(bounds));
        l.reserve(50, 100, 2_000);
        assert!(l.fits(0, 50, 8_900));
        assert!(!l.fits(0, 51, 8_000));
        assert!(!l.fits(120, 40, 2_500));
        assert!(l.fits(150, 50, 2_000));
        // Long-window earliest_fit crosses the phase boundary with the
        // headroom skip.
        assert_eq!(l.earliest_fit(0, 60, 6_500), Some(0));
        // 8.0 exceeds the 7.0 slack inside the reservation and the 4.0
        // tail bound, so no 60-cycle window past cycle 0 ever fits.
        assert_eq!(l.earliest_fit(1, 60, 8_000), None);
        // 2.5 exceeds the 2.0 slack of the reserved tail cells
        // [100, 150): the headroom skip must jump the search straight
        // past the whole region.
        assert_eq!(l.earliest_fit(61, 40, 2_500), Some(150));
    }

    #[test]
    fn profile_violations_against_a_budget() {
        let p = PowerProfile {
            per_cycle: vec![5_000, 5_000, 5_000],
        };
        let mut seen = PowerInterval::EVERY;
        let constant = PowerBudget::constant(4.0);
        assert_eq!(p.first_violation(&constant, &mut seen), Some((0, 5_000)));
        let steps = PowerBudget::steps(vec![(0, 6.0), (2, 4.0)]);
        assert_eq!(p.first_violation(&steps, &mut seen), Some((2, 5_000)));
    }

    #[test]
    fn budget_ascii_overlay_marks_bounds_and_violations() {
        let p = PowerProfile {
            per_cycle: vec![2_000, 8_000],
        };
        let chart = p.to_ascii_under(20, &PowerBudget::steps(vec![(0, 10.0), (1, 5.0)]));
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains("(P<10.0)"));
        assert!(chart.contains("(P<5.0)"));
        assert!(chart.lines().nth(1).unwrap().ends_with("!!"));
        // Unbounded cycles render without a wall or annotation.
        let free = p.to_ascii_under(20, &PowerBudget::unbounded());
        assert!(!free.contains("(P<"));
    }
}
