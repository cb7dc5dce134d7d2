//! Per-cycle power accounting: profiles and incremental ledgers.

use serde::{Deserialize, Serialize};

use crate::budget::PowerBudget;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

use pchls_cdfg::NodeId;

/// Tolerance used when comparing accumulated floating-point power sums to
/// a bound, so that summation order cannot flip a feasibility decision.
pub(crate) const POWER_EPS: f64 = 1e-9;

/// Materializes `budget` over `horizon`, collapsing to `Ok(bound)` when
/// every cycle's bound is **bit-identical** (an empty horizon collapses
/// to the opening bound — with zero leaves the value is never read).
/// This is the one collapse rule shared by [`PowerLedger`] and
/// [`NaivePowerLedger`], so the fast ledger and the differential-test
/// reference can never disagree about which mode a budget selects. The
/// `Err` carries the per-cycle bounds plus their peak.
#[allow(clippy::type_complexity)]
fn materialize_or_constant(budget: &PowerBudget, horizon: u32) -> Result<f64, (Vec<f64>, f64)> {
    // Constant-collapsing budgets are the hot case (every scalar
    // constraint, once per scheduler invocation), so detect them
    // without materializing: no allocation on the fast path.
    if horizon == 0 {
        return Ok(budget.bound_at(0));
    }
    let first = budget.bound_at(0);
    if budget.as_constant().is_some()
        || (1..horizon).all(|c| budget.bound_at(c).to_bits() == first.to_bits())
    {
        return Ok(first);
    }
    let bounds = budget.materialize(horizon);
    let peak = bounds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Err((bounds, peak))
}

/// The power drawn in every clock cycle of a schedule.
///
/// This is the quantity Figure 1 of the paper plots: the per-cycle profile
/// whose spikes shorten battery life.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    per_cycle: Vec<f64>,
}

impl PowerProfile {
    /// Computes the profile of `schedule` under `timing`.
    #[must_use]
    pub fn of(schedule: &Schedule, timing: &TimingMap) -> PowerProfile {
        let mut per_cycle = vec![0.0; schedule.latency(timing) as usize];
        for (i, &s) in schedule.starts().iter().enumerate() {
            let id = NodeId::new(i as u32);
            let t = timing.of(id);
            for c in s..s + t.delay {
                per_cycle[c as usize] += t.power;
            }
        }
        PowerProfile { per_cycle }
    }

    /// Wraps a raw per-cycle vector (e.g. from a datapath simulation).
    #[must_use]
    pub fn from_cycles(per_cycle: Vec<f64>) -> PowerProfile {
        PowerProfile { per_cycle }
    }

    /// Power drawn in each cycle, indexed from cycle 0.
    #[must_use]
    pub fn per_cycle(&self) -> &[f64] {
        &self.per_cycle
    }

    /// Number of cycles covered (the schedule latency).
    #[must_use]
    pub fn cycles(&self) -> u32 {
        self.per_cycle.len() as u32
    }

    /// The maximum power drawn in any single cycle.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.per_cycle.iter().copied().fold(0.0, f64::max)
    }

    /// Mean power over the whole schedule (0 for an empty profile).
    #[must_use]
    pub(crate) fn average(&self) -> f64 {
        if self.per_cycle.is_empty() {
            0.0
        } else {
            self.energy() / self.per_cycle.len() as f64
        }
    }

    /// Total energy: the sum of per-cycle powers.
    #[must_use]
    pub(crate) fn energy(&self) -> f64 {
        self.per_cycle.iter().sum()
    }

    /// Peak-to-average ratio, the "spikiness" the paper's Figure 1
    /// illustrates. Returns 0 for an empty profile.
    #[must_use]
    pub fn peak_to_average(&self) -> f64 {
        let avg = self.average();
        if avg == 0.0 {
            0.0
        } else {
            self.peak() / avg
        }
    }

    /// The first cycle whose power exceeds the budget's bound *for that
    /// cycle* (with tolerance), if any, together with the power drawn
    /// there.
    #[must_use]
    pub(crate) fn first_violation(&self, budget: &PowerBudget) -> Option<(u32, f64)> {
        self.per_cycle
            .iter()
            .enumerate()
            .find(|&(c, &p)| p > budget.bound_at(c as u32) + POWER_EPS)
            .map(|(c, &p)| (c as u32, p))
    }

    /// Renders the profile as a rows-of-`#` ASCII bar chart, one line per
    /// cycle — handy for eyeballing Figure 1-style comparisons.
    #[must_use]
    pub fn to_ascii(&self, width: usize) -> String {
        let peak = self.peak();
        let mut out = String::new();
        for (c, &p) in self.per_cycle.iter().enumerate() {
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
        let finite_peak = (0..self.per_cycle.len() as u32)
            .map(|c| budget.bound_at(c))
            .filter(|b| b.is_finite())
            .fold(self.peak(), f64::max);
        let mut out = String::new();
        for (c, &p) in self.per_cycle.iter().enumerate() {
            let bound = budget.bound_at(c as u32);
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
            let violated = p > bound + POWER_EPS;
            let mark = if violated { " !!" } else { "" };
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

/// An incremental per-cycle power ledger with a fixed budget envelope,
/// used by the power-constrained schedulers and the synthesis loop to
/// reserve and release execution intervals.
///
/// Two modes share one type, selected by the budget's shape:
///
/// * **Constant mode** — the classical scalar bound. The ledger keeps
///   the exact power reserved in each cycle (the same `f64`s the naive
///   cycle-scanning ledger holds, mutated in the same order, so
///   bit-exact). Since IEEE-754 addition is monotone, `u + power ≤
///   bound` holds for every cycle of a window iff it holds for the
///   window's maximum.
/// * **Envelope mode** — a time-varying [`PowerBudget`]. A usage
///   maximum says nothing against a moving bound, so the ledger also
///   keeps per-cycle **slack** `slack[c] = budget[c] − used[c]`: an
///   operation drawing `power` fits a window iff `power ≤ slack + ε`
///   holds at the window's *minimum* slack. Slack cells are recomputed
///   from `(budget[c], used[c])` whenever a usage cell changes, so they
///   are a pure function of the usage state and snapshot/restore
///   rollback stays bit-exact for free.
///
/// Either way every query reduces the covered cells 4-wide (module
/// delays are a few cycles, so a window is a handful of contiguous
/// loads), and [`PowerLedger::earliest_fit`] jumps past each infeasible
/// window's **rightmost** violating cycle (every start whose window
/// covers that cycle is infeasible, so the search resumes just past
/// it).
///
/// A budget whose materialized bounds are all equal — however it was
/// spelled ([`PowerBudget::Constant`], a one-step envelope, a flat
/// per-cycle vector) — is detected by [`PowerLedger::under`] and
/// runs in constant mode, preserving the original scalar arithmetic
/// bit for bit.
///
/// [`NaivePowerLedger`] retains the cycle-scanning implementation as the
/// differential-testing reference for both modes.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLedger {
    /// The exact power reserved in each cycle of the horizon.
    used: Vec<f64>,
    /// Envelope mode only: `slack[c] = bounds[c] - used[c]`. Empty in
    /// constant mode.
    slack: Vec<f64>,
    /// Envelope mode only: the materialized per-cycle bound. Empty in
    /// constant mode.
    bounds: Vec<f64>,
    /// Constant mode: the scalar bound. Envelope mode: the peak bound
    /// (used for the can-never-fit quick reject).
    max_power: f64,
}

/// Maximum of `values` with four independent accumulators so the f64
/// `max` chains don't serialize — the compiler keeps the accumulators in
/// separate registers (auto-vectorizing where the target allows).
/// Returns `-inf` for an empty slice. `f64::max` here is commutative and
/// associative over the ledger's cell values (never NaN, see
/// [`PowerLedger::reserve`]'s fits-first contract), so the reassociated
/// reduction equals the sequential fold bit for bit.
fn unrolled_max(values: &[f64]) -> f64 {
    let mut acc = [f64::NEG_INFINITY; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        acc[0] = acc[0].max(c[0]);
        acc[1] = acc[1].max(c[1]);
        acc[2] = acc[2].max(c[2]);
        acc[3] = acc[3].max(c[3]);
    }
    let mut m = (acc[0].max(acc[1])).max(acc[2].max(acc[3]));
    for &v in tail {
        m = m.max(v);
    }
    m
}

/// Minimum of `values`, the 4-wide dual of [`unrolled_max`]. Returns
/// `+inf` for an empty slice.
fn unrolled_min(values: &[f64]) -> f64 {
    let mut acc = [f64::INFINITY; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        acc[0] = acc[0].min(c[0]);
        acc[1] = acc[1].min(c[1]);
        acc[2] = acc[2].min(c[2]);
        acc[3] = acc[3].min(c[3]);
    }
    let mut m = (acc[0].min(acc[1])).min(acc[2].min(acc[3]));
    for &v in tail {
        m = m.min(v);
    }
    m
}

impl PowerLedger {
    /// Creates an empty constant-mode ledger over `horizon` cycles with
    /// budget `max_power` per cycle (may be `f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `max_power` is NaN or negative.
    #[must_use]
    pub fn new(horizon: u32, max_power: f64) -> PowerLedger {
        assert!(!max_power.is_nan() && max_power >= 0.0, "invalid budget");
        PowerLedger {
            used: vec![0.0; horizon as usize],
            slack: Vec::new(),
            bounds: Vec::new(),
            max_power,
        }
    }

    /// Creates an empty ledger over `horizon` cycles under `budget`.
    ///
    /// A budget whose bounds are equal in every cycle of the horizon
    /// takes the constant-mode fast path ([`PowerLedger::new`]) — same
    /// arithmetic, same answers, bit for bit — so passing
    /// `PowerBudget::constant(p)` here is exactly `new(horizon, p)`.
    #[must_use]
    pub fn under(horizon: u32, budget: &PowerBudget) -> PowerLedger {
        let (bounds, peak) = match materialize_or_constant(budget, horizon) {
            Ok(constant) => return PowerLedger::new(horizon, constant),
            Err(envelope) => envelope,
        };
        let used = vec![0.0; horizon as usize];
        // Written as `bound - used` (not just `bound`) so the initial
        // slack is the same expression `refresh` maintains.
        let slack = bounds.iter().zip(&used).map(|(b, u)| b - u).collect();
        PowerLedger {
            used,
            slack,
            bounds,
            max_power: peak,
        }
    }

    /// Whether this ledger runs in envelope mode (time-varying bounds).
    #[must_use]
    pub fn is_envelope(&self) -> bool {
        !self.bounds.is_empty()
    }

    /// The per-cycle budget in constant mode; the envelope's **peak**
    /// bound in envelope mode (see [`PowerLedger::bound`] for the
    /// per-cycle value).
    #[must_use]
    pub(crate) fn max_power(&self) -> f64 {
        self.max_power
    }

    /// The bound in force at `cycle` (the peak bound beyond the
    /// horizon).
    #[must_use]
    pub fn bound(&self, cycle: u32) -> f64 {
        self.bounds
            .get(cycle as usize)
            .copied()
            .unwrap_or(self.max_power)
    }

    /// The scheduling horizon in cycles.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.used.len() as u32
    }

    /// Power already reserved in `cycle` (0 beyond the horizon).
    #[must_use]
    pub fn used(&self, cycle: u32) -> f64 {
        self.used.get(cycle as usize).copied().unwrap_or(0.0)
    }

    /// The cells the fit predicate reads over cycles `[l, r)`: slack in
    /// envelope mode, usage in constant mode.
    fn cells(&self, l: usize, r: usize) -> &[f64] {
        if self.is_envelope() {
            &self.slack[l..r]
        } else {
            &self.used[l..r]
        }
    }

    /// The cell that decides a fit over `[l, r)`: the minimum slack in
    /// envelope mode, the maximum usage in constant mode (`±inf` when
    /// empty). IEEE-754 addition is monotone, so [`rejects`] holds for
    /// it iff it holds for some cell of the window.
    ///
    /// [`rejects`]: PowerLedger::rejects
    fn decisive(&self, l: usize, r: usize) -> f64 {
        let cells = self.cells(l, r);
        if self.is_envelope() {
            unrolled_min(cells)
        } else {
            unrolled_max(cells)
        }
    }

    /// The per-cycle predicate: whether a cycle whose cell (see
    /// [`cells`](PowerLedger::cells)) holds `cell` rejects an extra draw
    /// of `power`. It is the exact negation of the fit comparison —
    /// `p ≤ slack + ε` in envelope mode, `used + p ≤ P + ε` in constant
    /// mode — so anything that is not `≤`, greater *or* unordered (NaN),
    /// rejects; the negated operator is deliberate (`cell + power >
    /// bound` would silently pass NaN).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn rejects(&self, cell: f64, power: f64) -> bool {
        if self.is_envelope() {
            !(power <= cell + POWER_EPS)
        } else {
            !(cell + power <= self.max_power + POWER_EPS)
        }
    }

    /// Re-derives the slack cells over `[l, r)` after their usage cells
    /// were rewritten (envelope mode only).
    fn refresh(&mut self, l: usize, r: usize) {
        if self.is_envelope() {
            for c in l..r {
                self.slack[c] = self.bounds[c] - self.used[c];
            }
        }
    }

    /// Whether an operation drawing `power` per cycle can execute during
    /// `[start, start + delay)` without the budget overflowing, entirely
    /// within the horizon.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: f64) -> bool {
        let end = start as usize + delay as usize;
        if end > self.used.len() {
            return false;
        }
        delay == 0 || !self.rejects(self.decisive(start as usize, end), power)
    }

    /// Reserves `power` in every cycle of `[start, start + delay)`.
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit (callers must check
    /// [`PowerLedger::fits`] first); reserving blindly would corrupt the
    /// budget accounting.
    pub fn reserve(&mut self, start: u32, delay: u32, power: f64) {
        assert!(
            self.fits(start, delay, power),
            "reserve([{start}, {}), {power}) violates the budget",
            start + delay
        );
        let (s, e) = (start as usize, start as usize + delay as usize);
        for u in &mut self.used[s..e] {
            *u += power;
        }
        self.refresh(s, e);
    }

    /// Releases a previous reservation.
    ///
    /// Floating-point subtraction can leave ~1 ulp of residue; callers
    /// that need bit-exact rollback (the synthesis loop's candidate
    /// attempts) should pair [`PowerLedger::snapshot`] /
    /// [`PowerLedger::restore`] instead.
    pub fn release(&mut self, start: u32, delay: u32, power: f64) {
        if delay == 0 {
            return;
        }
        let (s, e) = (start as usize, start as usize + delay as usize);
        assert!(e <= self.used.len(), "release beyond the horizon");
        for u in &mut self.used[s..e] {
            *u = (*u - power).max(0.0);
        }
        self.refresh(s, e);
    }

    /// The exact per-cycle reservations over `[start, start + delay)`
    /// (clipped to the horizon), for later [`PowerLedger::restore`].
    #[must_use]
    pub fn snapshot(&self, start: u32, delay: u32) -> Vec<f64> {
        let end = (start as usize + delay as usize).min(self.used.len());
        self.used[(start as usize).min(end)..end].to_vec()
    }

    /// Writes back a [`PowerLedger::snapshot`], undoing every reservation
    /// and release on those cycles since the snapshot was taken —
    /// bit-exact, unlike arithmetic [`PowerLedger::release`].
    pub fn restore(&mut self, start: u32, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let s = start as usize;
        let e = s + values.len();
        assert!(e <= self.used.len(), "restore beyond the horizon");
        self.used[s..e].copy_from_slice(values);
        self.refresh(s, e);
    }

    /// The rightmost cycle in `[l, r)` whose cell rejects `power`, if
    /// any. The decisive-cell pre-check settles the clean window (every
    /// final probe of an offset search) without a positional scan.
    fn last_violation(&self, l: usize, r: usize, power: f64) -> Option<usize> {
        if !self.rejects(self.decisive(l, r), power) {
            return None;
        }
        self.cells(l, r)
            .iter()
            .rposition(|&cell| self.rejects(cell, power))
            .map(|i| l + i)
    }

    /// The first covered cycle of `[start, start + delay)` whose own
    /// per-cycle check rejects an additional draw of `power` — the
    /// precise counterpart of a failed [`PowerLedger::fits`], used to
    /// point error diagnostics at the violating cycle (and its own
    /// bound) instead of the interval's start. Cycles at or past the
    /// horizon report as the horizon itself (an out-of-range interval
    /// has no in-budget witness).
    #[must_use]
    pub fn first_unfit_cycle(&self, start: u32, delay: u32, power: f64) -> Option<u32> {
        if self.fits(start, delay, power) {
            return None;
        }
        let end = start.saturating_add(delay);
        if end > self.horizon() {
            return Some(self.horizon());
        }
        let first = self
            .cells(start as usize, end as usize)
            .iter()
            .position(|&cell| self.rejects(cell, power));
        Some(first.map_or(start, |i| start + i as u32))
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
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: f64) -> Option<u32> {
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
        power: f64,
        latest_finish: u32,
    ) -> Option<u32> {
        if power > self.max_power + POWER_EPS {
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

/// The original cycle-scanning power ledger, kept verbatim as the
/// reference implementation the flat [`PowerLedger`] is
/// differential-tested against (`crates/sched/tests/properties.rs`).
/// Every operation has the naive complexity the paper's pseudocode
/// implies: O(delay) probes, O(horizon × delay) offset searches.
/// Generalized alongside the fast ledger: under a [`PowerBudget`]
/// envelope it evaluates the same per-cycle slack predicate, computed
/// from scratch on every query.
#[derive(Debug, Clone, PartialEq)]
pub struct NaivePowerLedger {
    used: Vec<f64>,
    /// Envelope mode: the materialized per-cycle bound (`None` for the
    /// classical constant budget).
    bounds: Option<Vec<f64>>,
    max_power: f64,
}

impl NaivePowerLedger {
    /// As [`PowerLedger::new`].
    ///
    /// # Panics
    ///
    /// Panics if `max_power` is NaN or negative.
    #[must_use]
    pub fn new(horizon: u32, max_power: f64) -> NaivePowerLedger {
        assert!(!max_power.is_nan() && max_power >= 0.0, "invalid budget");
        NaivePowerLedger {
            used: vec![0.0; horizon as usize],
            bounds: None,
            max_power,
        }
    }

    /// As [`PowerLedger::under`]: equal-bound budgets collapse to
    /// the constant path, everything else evaluates per-cycle slack.
    #[must_use]
    pub fn under(horizon: u32, budget: &PowerBudget) -> NaivePowerLedger {
        let (bounds, peak) = match materialize_or_constant(budget, horizon) {
            Ok(constant) => return NaivePowerLedger::new(horizon, constant),
            Err(envelope) => envelope,
        };
        NaivePowerLedger {
            used: vec![0.0; horizon as usize],
            bounds: Some(bounds),
            max_power: peak,
        }
    }

    /// As [`PowerLedger::horizon`].
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.used.len() as u32
    }

    /// As [`PowerLedger::used`].
    #[must_use]
    pub fn used(&self, cycle: u32) -> f64 {
        self.used.get(cycle as usize).copied().unwrap_or(0.0)
    }

    /// As [`PowerLedger::fits`], by scanning every cycle.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: f64) -> bool {
        let end = start as usize + delay as usize;
        if end > self.used.len() {
            return false;
        }
        match &self.bounds {
            Some(bounds) => {
                (start as usize..end).all(|c| power <= (bounds[c] - self.used[c]) + POWER_EPS)
            }
            None => self.used[start as usize..end]
                .iter()
                .all(|&u| u + power <= self.max_power + POWER_EPS),
        }
    }

    /// As [`PowerLedger::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit.
    pub fn reserve(&mut self, start: u32, delay: u32, power: f64) {
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
    pub fn release(&mut self, start: u32, delay: u32, power: f64) {
        for c in start..start + delay {
            let u = &mut self.used[c as usize];
            *u = (*u - power).max(0.0);
        }
    }

    /// As [`PowerLedger::snapshot`].
    #[must_use]
    pub fn snapshot(&self, start: u32, delay: u32) -> Vec<f64> {
        let end = (start as usize + delay as usize).min(self.used.len());
        self.used[(start as usize).min(end)..end].to_vec()
    }

    /// As [`PowerLedger::restore`].
    pub fn restore(&mut self, start: u32, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let s = start as usize;
        self.used[s..s + values.len()].copy_from_slice(values);
    }

    /// As [`PowerLedger::earliest_fit`], by increasing the offset one
    /// cycle at a time.
    #[must_use]
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: f64) -> Option<u32> {
        if power > self.max_power + POWER_EPS {
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

    #[test]
    fn unrolled_reductions_match_sequential_folds() {
        // Lengths straddling the 4-wide chunking (0, tails of 1–3, exact
        // multiples) against the plain folds they reassociate.
        for len in 0..=21usize {
            let values: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 17) as f64 - 5.0)
                .collect();
            let fold_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let fold_min = values.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(unrolled_max(&values).to_bits(), fold_max.to_bits(), "{len}");
            assert_eq!(unrolled_min(&values).to_bits(), fold_min.to_bits(), "{len}");
        }
        assert_eq!(unrolled_max(&[]), f64::NEG_INFINITY);
        assert_eq!(unrolled_min(&[]), f64::INFINITY);
    }

    #[test]
    fn ledger_reserve_release_round_trip() {
        let mut l = PowerLedger::new(10, 5.0);
        assert!(l.fits(2, 3, 4.0));
        l.reserve(2, 3, 4.0);
        assert!(!l.fits(3, 1, 2.0));
        assert!(l.fits(3, 1, 1.0));
        l.release(2, 3, 4.0);
        assert!(l.fits(3, 1, 5.0));
    }

    #[test]
    fn earliest_fit_skips_busy_cycles() {
        let mut l = PowerLedger::new(10, 5.0);
        l.reserve(0, 4, 3.0);
        // 3 power/cycle for 2 cycles cannot fit until cycle 4.
        assert_eq!(l.earliest_fit(0, 2, 3.0), Some(4));
        // 2 power/cycle fits immediately.
        assert_eq!(l.earliest_fit(0, 2, 2.0), Some(0));
    }

    #[test]
    fn earliest_fit_rejects_oversized_ops() {
        let l = PowerLedger::new(10, 5.0);
        assert_eq!(l.earliest_fit(0, 1, 6.0), None);
    }

    #[test]
    fn earliest_fit_respects_horizon() {
        let l = PowerLedger::new(4, 5.0);
        assert_eq!(l.earliest_fit(3, 2, 1.0), None);
        assert_eq!(l.earliest_fit(3, 1, 1.0), Some(3));
    }

    #[test]
    fn infinite_budget_always_fits() {
        let l = PowerLedger::new(4, f64::INFINITY);
        assert!(l.fits(0, 4, 1e18));
    }

    #[test]
    fn profile_statistics() {
        let s = Schedule::new(vec![0, 0, 1]);
        let t = TimingMap::from_entries(vec![
            OpTiming {
                delay: 1,
                power: 2.0,
            },
            OpTiming {
                delay: 2,
                power: 3.0,
            },
            OpTiming {
                delay: 1,
                power: 1.0,
            },
        ]);
        let p = PowerProfile::of(&s, &t);
        assert_eq!(p.per_cycle(), &[5.0, 4.0]);
        assert_eq!(p.cycles(), 2);
        assert!((p.peak() - 5.0).abs() < 1e-12);
        assert!((p.energy() - 9.0).abs() < 1e-12);
        assert!((p.average() - 4.5).abs() < 1e-12);
        assert!((p.peak_to_average() - 5.0 / 4.5).abs() < 1e-12);
        assert_eq!(
            p.first_violation(&PowerBudget::constant(4.5)),
            Some((0, 5.0))
        );
        assert_eq!(p.first_violation(&PowerBudget::constant(5.0)), None);
    }

    #[test]
    fn ascii_chart_has_one_line_per_cycle() {
        let p = PowerProfile::from_cycles(vec![1.0, 2.0, 0.5]);
        let chart = p.to_ascii(20);
        assert_eq!(chart.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "violates the budget")]
    fn blind_reserve_panics() {
        let mut l = PowerLedger::new(4, 1.0);
        l.reserve(0, 1, 2.0);
    }

    #[test]
    fn equal_bound_budgets_collapse_to_constant_mode() {
        // However the constant is spelled, the ledger must land on the
        // scalar fast path — this is what keeps scalar-constrained
        // synthesis byte-identical to the pre-envelope code.
        for budget in [
            PowerBudget::constant(5.0),
            PowerBudget::steps(vec![(0, 5.0)]),
            PowerBudget::per_cycle(vec![5.0; 10]),
        ] {
            let l = PowerLedger::under(10, &budget);
            assert!(!l.is_envelope(), "{budget:?}");
            assert_eq!(l, PowerLedger::new(10, 5.0), "{budget:?}");
        }
        // Infinity is a constant too.
        assert!(!PowerLedger::under(10, &PowerBudget::unbounded()).is_envelope());
    }

    #[test]
    fn envelope_ledger_enforces_each_cycles_own_bound() {
        let budget = PowerBudget::steps(vec![(0, 10.0), (4, 3.0)]);
        let l = PowerLedger::under(8, &budget);
        assert!(l.is_envelope());
        assert_eq!(l.bound(0), 10.0);
        assert_eq!(l.bound(4), 3.0);
        // 5 power/cycle fits the opening phase but not the tail.
        assert!(l.fits(0, 4, 5.0));
        assert!(!l.fits(2, 4, 5.0)); // crosses into the 3.0 phase
        assert!(!l.fits(4, 2, 5.0));
        assert!(l.fits(4, 2, 3.0));
        // The offset search lands inside whichever phase admits the op.
        assert_eq!(l.earliest_fit(0, 2, 5.0), Some(0));
        assert_eq!(l.earliest_fit(3, 2, 5.0), None);
        assert_eq!(l.earliest_fit(0, 2, 3.0), Some(0));
        // Above the peak bound: nothing ever fits.
        assert_eq!(l.earliest_fit(0, 1, 11.0), None);
    }

    #[test]
    fn envelope_reservations_consume_slack() {
        let budget = PowerBudget::per_cycle(vec![10.0, 10.0, 4.0, 4.0]);
        let mut l = PowerLedger::under(4, &budget);
        l.reserve(0, 4, 3.0);
        assert!(l.fits(0, 2, 7.0));
        assert!(!l.fits(0, 3, 2.0)); // cycle 2 has 1.0 slack left
        assert!(l.fits(2, 2, 1.0));
        let snap = l.snapshot(0, 4);
        l.reserve(2, 2, 1.0);
        assert!(!l.fits(2, 1, 0.5));
        l.restore(0, &snap[..]);
        assert!(l.fits(2, 2, 1.0), "restore must refresh slack");
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
        l.reserve(50, 100, 2.0);
        assert!(l.fits(0, 50, 8.9));
        assert!(!l.fits(0, 51, 8.0));
        assert!(!l.fits(120, 40, 2.5));
        assert!(l.fits(150, 50, 2.0));
        // Long-window earliest_fit crosses the phase boundary with the
        // headroom skip.
        assert_eq!(l.earliest_fit(0, 60, 6.5), Some(0));
        // 8.0 exceeds the 7.0 slack inside the reservation and the 4.0
        // tail bound, so no 60-cycle window past cycle 0 ever fits.
        assert_eq!(l.earliest_fit(1, 60, 8.0), None);
        // 2.5 exceeds the 2.0 slack of the reserved tail cells
        // [100, 150): the headroom skip must jump the search straight
        // past the whole region.
        assert_eq!(l.earliest_fit(61, 40, 2.5), Some(150));
    }

    #[test]
    fn profile_violations_against_a_budget() {
        let p = PowerProfile::from_cycles(vec![5.0, 5.0, 5.0]);
        let constant = PowerBudget::constant(4.0);
        assert_eq!(p.first_violation(&constant), Some((0, 5.0)));
        let steps = PowerBudget::steps(vec![(0, 6.0), (2, 4.0)]);
        assert_eq!(p.first_violation(&steps), Some((2, 5.0)));
    }

    #[test]
    fn budget_ascii_overlay_marks_bounds_and_violations() {
        let p = PowerProfile::from_cycles(vec![2.0, 8.0]);
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
