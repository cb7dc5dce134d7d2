//! The paper's power-constrained ASAP/ALAP schedulers (`pasap`, `palap`).
//!
//! `pasap` heuristically "stretches" the classical ASAP schedule to fit a
//! per-cycle power budget: processing operations in dependence order,
//! each is placed at its data-ready time plus the smallest offset whose
//! whole execution interval has power available (§2 of the paper, steps
//! 1–4). `palap` is the time-reversed dual, giving the latest
//! power-feasible start times under a latency bound.
//!
//! Both support *locked* operations — start times already committed by
//! the synthesis loop — which participate in power accounting and
//! precedence but are never moved. This is the mechanism behind the
//! paper's backtracking rule: on infeasibility, the synthesizer locks all
//! unscheduled operations to the last valid `pasap` schedule and
//! continues.

use pchls_cdfg::{Cdfg, NodeId};

use crate::budget::PowerBudget;
use crate::error::ScheduleError;
use crate::interval::PowerInterval;
use crate::power::PowerLedger;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

use pchls_fulib::units;

/// Start times fixed in advance for a subset of operations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockedStarts {
    starts: Vec<Option<u32>>,
}

impl LockedStarts {
    /// No locks over a graph of `len` nodes.
    #[must_use]
    pub fn none(len: usize) -> LockedStarts {
        LockedStarts {
            starts: vec![None; len],
        }
    }

    /// Locks `id` to start at `start`, replacing any previous lock.
    pub fn lock(&mut self, id: NodeId, start: u32) {
        self.starts[id.index()] = Some(start);
    }

    /// Removes the lock on `id`, if any.
    pub fn unlock(&mut self, id: NodeId) {
        self.starts[id.index()] = None;
    }

    /// The locked start of `id`, if locked.
    #[must_use]
    pub fn get(&self, id: NodeId) -> Option<u32> {
        self.starts[id.index()]
    }

    /// Whether `id` is locked.
    #[must_use]
    pub fn is_locked(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }
}

/// Power-constrained ASAP without any locked operations.
///
/// Operations are considered in dependence order and placed at the
/// earliest start `≥` their data-ready time whose execution interval fits
/// under `budget` in every cycle (each cycle against *that cycle's*
/// bound), searching up to `horizon`.
///
/// # Errors
///
/// * [`ScheduleError::OpExceedsBudget`] if one operation alone exceeds
///   the envelope's **peak** bound (it could fit in no cycle at all).
/// * [`ScheduleError::Infeasible`] if some operation cannot be placed
///   within `horizon`.
pub fn pasap(
    graph: &Cdfg,
    timing: &TimingMap,
    budget: &PowerBudget,
    horizon: u32,
) -> Result<Schedule, ScheduleError> {
    PlacementCache::new(graph, budget, horizon).pasap_locked(
        timing,
        &LockedStarts::none(graph.len()),
        &PowerLedger::under(horizon, budget),
    )
}

/// Power-constrained ALAP without locked operations: the latest
/// power-feasible start times such that the graph finishes by `latency`.
///
/// # Errors
///
/// As [`pasap`]; infeasibility means no power-feasible schedule fits in
/// `latency` cycles under this (reversed-greedy) heuristic.
pub fn palap(
    graph: &Cdfg,
    timing: &TimingMap,
    budget: &PowerBudget,
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    PlacementCache::new(graph, budget, latency).palap_locked(
        timing,
        &LockedStarts::none(graph.len()),
        &PowerLedger::under(latency, budget),
    )
}

/// The locked forms of [`pasap`] and [`palap`] over one graph, one
/// budget and one horizon (`palap`'s latency bound), reusing each
/// direction's placement order while the delays it was computed for are
/// unchanged.
///
/// The order in which the placement loop visits operations depends only
/// on the graph and the delays — never on locks, starts or the budget —
/// so a caller scheduling one graph many times under changing locks (the
/// synthesis loop) pays for it only when a delay changes. The ledgers
/// depend only on the budget and the horizon, which a cache never
/// changes: it builds one per direction (the reverse one under the
/// time-mirrored envelope) at construction.
///
/// The locked operations' power comes from the caller, as a forward-time
/// ledger holding exactly their reservations (the synthesis loop keeps
/// one; [`reserve_locked`] builds one). A placement loads it into its
/// direction's ledger in O(horizon), so it pays only for the unlocked
/// operations, the edges into locked ones and its offset searches.
/// Every answer equals that of a fresh cache.
///
/// The cache also accumulates the bound comparisons of every placement
/// it ran, failed ones included ([`interval`](PlacementCache::interval)),
/// and counts its placements and offset searches.
#[derive(Debug)]
pub struct PlacementCache<'g> {
    graph: &'g Cdfg,
    budget: &'g PowerBudget,
    horizon: u32,
    forward: CachedOrder,
    reverse: CachedOrder,
    forward_ledger: PowerLedger,
    /// Built under `budget` mirrored over the horizon.
    reverse_ledger: PowerLedger,
    computed: u64,
    placements: [u64; 2],
    searched: u64,
    seen: PowerInterval,
}

/// One direction's placement order and the delays it was computed for.
#[derive(Debug, Default)]
struct CachedOrder {
    /// Empty until the first computation (an empty graph's order is
    /// empty too, so it is never stale).
    delays: Vec<u32>,
    order: Vec<NodeId>,
}

impl CachedOrder {
    /// The order for `timing`'s delays, recomputed by `compute` (and
    /// counted in `computed`) when they differ from the cached ones.
    fn refresh(
        &mut self,
        timing: &TimingMap,
        computed: &mut u64,
        compute: impl FnOnce() -> Vec<NodeId>,
    ) -> &[NodeId] {
        if !self.delays.iter().copied().eq(timing.delays()) {
            self.order = compute();
            self.delays.clear();
            self.delays.extend(timing.delays());
            *computed += 1;
        }
        &self.order
    }
}

impl<'g> PlacementCache<'g> {
    /// A cache placing `graph` under `budget` over `horizon` cycles, with
    /// both directions' ledgers built.
    #[must_use]
    pub fn new(graph: &'g Cdfg, budget: &'g PowerBudget, horizon: u32) -> PlacementCache<'g> {
        PlacementCache {
            graph,
            forward_ledger: PowerLedger::under(horizon, budget),
            reverse_ledger: PowerLedger::under(horizon, &budget.reversed(horizon)),
            budget,
            horizon,
            forward: CachedOrder::default(),
            reverse: CachedOrder::default(),
            computed: 0,
            placements: [0; 2],
            searched: 0,
            seen: PowerInterval::EVERY,
        }
    }

    /// Power-constrained ASAP honouring locked start times.
    ///
    /// `held` holds exactly the locked operations' reservations, built
    /// over the cache's horizon under its budget (see
    /// [`reserve_locked`]). Locked operations are never moved; unlocked
    /// operations are placed at their earliest power-feasible start. A
    /// lock combination that forces a precedence violation (e.g. a
    /// locked consumer whose producer cannot finish in time) is reported
    /// as an error — this is the infeasibility signal that triggers the
    /// synthesizer's backtracking.
    ///
    /// # Errors
    ///
    /// As [`pasap`], plus [`ScheduleError::PrecedenceViolated`] when
    /// locked starts are inconsistent with the dependences.
    ///
    /// # Panics
    ///
    /// Panics if `held` spans another horizon.
    pub fn pasap_locked(
        &mut self,
        timing: &TimingMap,
        locked: &LockedStarts,
        held: &PowerLedger,
    ) -> Result<Schedule, ScheduleError> {
        let graph = self.graph;
        let order = self.forward.refresh(timing, &mut self.computed, || {
            placement_order(
                |id| graph.operands(id),
                |id| graph.successors(id),
                graph.topological().iter().rev().copied(),
                graph.len(),
                timing,
            )
        });
        self.placements[0] += 1;
        let ledger = &mut self.forward_ledger;
        ledger.load(held);
        let placed = place_on(
            ledger,
            order,
            |id| graph.operands(id),
            timing,
            self.budget,
            &mut self.searched,
            |id| locked.get(id),
        );
        self.seen.merge(ledger.interval());
        let (starts, precedes) = placed?;
        valid(graph, Schedule::new(starts), timing, None, precedes)
    }

    /// Power-constrained ALAP honouring locked start times, finishing by
    /// the cache's horizon; `held` as for
    /// [`pasap_locked`](PlacementCache::pasap_locked).
    ///
    /// Implemented by running the `pasap` placement on the time-reversed
    /// graph: a forward interval `[s, s+d)` corresponds to the reversed
    /// interval `[latency-s-d, latency-s)`, so locks and power
    /// reservations mirror exactly. The placement runs against the
    /// **time-mirrored** envelope, so a forward cycle's bound constrains
    /// exactly the reversed cycle it maps to.
    ///
    /// # Errors
    ///
    /// As [`pasap_locked`](PlacementCache::pasap_locked).
    ///
    /// # Panics
    ///
    /// As [`pasap_locked`](PlacementCache::pasap_locked), and on a lock
    /// ending past the horizon, which `held` cannot reserve.
    pub fn palap_locked(
        &mut self,
        timing: &TimingMap,
        locked: &LockedStarts,
        held: &PowerLedger,
    ) -> Result<Schedule, ScheduleError> {
        let graph = self.graph;
        let (budget, latency) = (self.budget, self.horizon);
        let order = self.reverse.refresh(timing, &mut self.computed, || {
            placement_order(
                |id| graph.successors(id),
                |id| graph.operands(id),
                graph.topological().iter().copied(),
                graph.len(),
                timing,
            )
        });
        self.placements[1] += 1;
        let ledger = &mut self.reverse_ledger;
        ledger.load_mirrored(held);
        // A forward start `s` with delay `d` maps to the reversed start
        // `latency - s - d`.
        let flip = |start: u32, delay: u32| latency.checked_sub(start)?.checked_sub(delay);
        let placed = place_on(
            ledger,
            order,
            |id| graph.successors(id),
            timing,
            budget,
            &mut self.searched,
            |id| {
                locked
                    .get(id)
                    .map(|s| flip(s, timing.delay(id)).expect("a held lock ends by the horizon"))
            },
        );
        self.seen.merge(ledger.interval());
        let (mut starts, precedes) = placed?;
        for (i, start) in starts.iter_mut().enumerate() {
            let id = NodeId::new(i as u32);
            *start = flip(*start, timing.delay(id)).ok_or_else(|| ScheduleError::Infeasible {
                node: id,
                horizon: latency,
                max_power: budget.peak_within(latency),
            })?;
        }
        valid(
            graph,
            Schedule::new(starts),
            timing,
            Some(latency),
            precedes,
        )
    }

    /// Placement orders computed so far, over both directions.
    #[must_use]
    pub fn orders_computed(&self) -> u64 {
        self.computed
    }

    /// Placements run so far, failed ones included: `[pasap, palap]`.
    #[must_use]
    pub fn placements(&self) -> [u64; 2] {
        self.placements
    }

    /// Unlocked operations whose start the placements so far searched
    /// for, over both directions (a failed search included).
    #[must_use]
    pub fn searched(&self) -> u64 {
        self.searched
    }

    /// Every bound comparison of the placements run so far (see
    /// [`PowerLedger::interval`]).
    #[must_use]
    pub fn interval(&self) -> PowerInterval {
        self.seen
    }
}

/// `schedule`, placed by [`place_on`], once it is known valid against
/// precedence and `latency`. Every unlocked operation starts at or after
/// its data-ready time, and a reversed start that flips back finishes by
/// the latency bound, so only an edge into a locked operation can fail:
/// `precedes` says none did. [`Schedule::validate`] runs in full only
/// when one did, so the error is the one it names first.
fn valid(
    graph: &Cdfg,
    schedule: Schedule,
    timing: &TimingMap,
    latency: Option<u32>,
    precedes: bool,
) -> Result<Schedule, ScheduleError> {
    if precedes {
        debug_assert_eq!(
            schedule.validate(graph, timing, latency, None),
            Ok(()),
            "a placement valid by construction is not"
        );
    } else {
        schedule.validate(graph, timing, latency, None)?;
    }
    Ok(schedule)
}

/// The order in which [`place_on`] visits the operations of one orientation
/// of the graph.
///
/// `preds` and `succs` describe the DAG being scheduled (forward for
/// `pasap`, reversed for `palap`); `reverse_topological` lists its nodes
/// sinks first.
///
/// The paper's step 1 ("pick an unscheduled operator") leaves the pick
/// order open; we pick, among data-ready operations, the one with the
/// longest delay-weighted path to a sink. Critical chains therefore claim
/// power slots first and non-critical operations absorb the stretching,
/// which is both the sensible reading and necessary for tight latency
/// bounds to remain feasible. Locked operations keep their place in the
/// order (they release their successors like any other), so the order
/// depends only on the graph and the delays.
fn placement_order<'a>(
    preds: impl Fn(NodeId) -> &'a [NodeId],
    succs: impl Fn(NodeId) -> &'a [NodeId],
    reverse_topological: impl Iterator<Item = NodeId>,
    len: usize,
    timing: &TimingMap,
) -> Vec<NodeId> {
    // Criticality: longest delay-weighted path to a sink (in this
    // orientation).
    let mut priority = vec![0u64; len];
    for id in reverse_topological {
        let down = succs(id)
            .iter()
            .map(|&s| priority[s.index()])
            .max()
            .unwrap_or(0);
        priority[id.index()] = down + u64::from(timing.delay(id));
    }

    // Ready queue: (priority, id) max-heap; ids break ties low-first for
    // determinism.
    let mut remaining: Vec<usize> = (0..len)
        .map(|i| preds(NodeId::new(i as u32)).len())
        .collect();
    let mut heap: std::collections::BinaryHeap<(u64, std::cmp::Reverse<NodeId>)> = (0..len)
        .map(|i| NodeId::new(i as u32))
        .filter(|id| remaining[id.index()] == 0)
        .map(|id| (priority[id.index()], std::cmp::Reverse(id)))
        .collect();

    let mut order = Vec::with_capacity(len);
    while let Some((_, std::cmp::Reverse(id))) = heap.pop() {
        order.push(id);
        for &s in succs(id) {
            remaining[s.index()] -= 1;
            if remaining[s.index()] == 0 {
                heap.push((priority[s.index()], std::cmp::Reverse(s)));
            }
        }
    }
    debug_assert_eq!(order.len(), len, "every op is ordered exactly once");
    order
}

/// Reserves the power of every locked operation among the first `nodes`
/// ids on `ledger`, in ascending id order: the ledger of locked
/// reservations [`PlacementCache`]'s placements start from, which the
/// synthesis kernel's backtrack rebuilds in place. `budget` is the
/// envelope `ledger` was built under.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] for a lock that ends past the ledger's
/// horizon, or [`ScheduleError::PowerExceeded`] at the cycle that
/// actually rejects a lock: under an envelope that can be deep inside
/// its interval, with a tighter bound than the start's.
pub fn reserve_locked(
    ledger: &mut PowerLedger,
    nodes: usize,
    timing: &TimingMap,
    budget: &PowerBudget,
    locked: impl Fn(NodeId) -> Option<u32>,
) -> Result<(), ScheduleError> {
    let horizon = ledger.horizon();
    for id in (0..nodes as u32).map(NodeId::new) {
        let Some(s) = locked(id) else { continue };
        let t = timing.of(id);
        if s + t.delay > horizon {
            return Err(ScheduleError::Infeasible {
                node: id,
                horizon,
                max_power: budget.peak_within(horizon),
            });
        }
        if !ledger.fits(s, t.delay, t.power) {
            let v = ledger
                .first_unfit_cycle(s, t.delay, t.power)
                .expect("fits just failed");
            return Err(ScheduleError::PowerExceeded {
                cycle: v,
                power: units(ledger.used(v) + t.power),
                bound: budget.bound_at(v),
            });
        }
        ledger.reserve(s, t.delay, t.power);
    }
    Ok(())
}

/// The placement loop shared by every power-constrained ASAP/ALAP form:
/// every unlocked operation of `order` (see [`placement_order`]) takes
/// its earliest power-feasible start at or after its data-ready time,
/// counted in `searched`. `order` holds every node once; `preds` and
/// `locked` are in the oriented time axis. `ledger`, built under
/// `budget` in that orientation, already holds the locked operations'
/// reservations.
///
/// Returns the starts, and whether every locked operation starts at or
/// after its own data-ready time: with the unlocked ones placed there,
/// whether every edge meets precedence.
fn place_on<'a>(
    ledger: &mut PowerLedger,
    order: &[NodeId],
    preds: impl Fn(NodeId) -> &'a [NodeId],
    timing: &TimingMap,
    budget: &PowerBudget,
    searched: &mut u64,
    locked: impl Fn(NodeId) -> Option<u32>,
) -> Result<(Vec<u32>, bool), ScheduleError> {
    let horizon = ledger.horizon();
    // The scalar every error message reports: the bound itself for a
    // constant budget, the envelope's peak otherwise.
    let infeasible = |node: NodeId| ScheduleError::Infeasible {
        node,
        horizon,
        max_power: budget.peak_within(horizon),
    };
    let mut starts = vec![0u32; order.len()];
    let mut precedes = true;

    // `order` is topological, so every start is recorded before any
    // successor reads it.
    for &id in order {
        // Data-ready time: all predecessors (in this orientation) done.
        let ready = || {
            preds(id)
                .iter()
                .map(|&p| starts[p.index()] + timing.delay(p))
                .max()
                .unwrap_or(0)
        };
        if let Some(s) = locked(id) {
            precedes &= ready() <= s;
            starts[id.index()] = s;
            continue;
        }
        *searched += 1;
        let t = timing.of(id);
        if !ledger.admits(t.power) {
            return Err(ScheduleError::OpExceedsBudget {
                node: id,
                power: units(t.power),
                max_power: budget.peak_within(horizon),
            });
        }
        let start = ledger
            .earliest_fit(ready(), t.delay, t.power)
            .ok_or_else(|| infeasible(id))?;
        ledger.reserve(start, t.delay, t.power);
        starts[id.index()] = start;
    }
    Ok((starts, precedes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap;
    use crate::power::PowerProfile;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::{paper_library, SelectionPolicy};

    fn c(bound: f64) -> PowerBudget {
        PowerBudget::constant(bound)
    }

    fn hal_timing() -> (Cdfg, TimingMap) {
        let g = benchmarks::hal();
        let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
        (g, t)
    }

    /// `place` (a locked placement of either direction) on a fresh cache,
    /// from the ledger [`reserve_locked`] builds for `locked`: the path
    /// every caller but the synthesis kernel takes.
    fn placed<'g>(
        g: &'g Cdfg,
        t: &TimingMap,
        budget: &'g PowerBudget,
        horizon: u32,
        locked: &LockedStarts,
        place: impl FnOnce(
            &mut PlacementCache<'g>,
            &TimingMap,
            &LockedStarts,
            &PowerLedger,
        ) -> Result<Schedule, ScheduleError>,
    ) -> Result<Schedule, ScheduleError> {
        let mut held = PowerLedger::under(horizon, budget);
        reserve_locked(&mut held, g.len(), t, budget, |id| locked.get(id))?;
        place(
            &mut PlacementCache::new(g, budget, horizon),
            t,
            locked,
            &held,
        )
    }

    #[test]
    fn infinite_budget_reproduces_asap() {
        for g in benchmarks::all() {
            let t = TimingMap::from_policy(&g, &paper_library(), SelectionPolicy::Fastest);
            let baseline = asap(&g, &t);
            let p = pasap(&g, &t, &PowerBudget::unbounded(), 1000).unwrap();
            assert_eq!(p, baseline, "{}", g.name());
        }
    }

    #[test]
    fn pasap_meets_the_power_bound() {
        let (g, t) = hal_timing();
        let unbounded_peak = PowerProfile::of(&asap(&g, &t), &t).peak();
        for frac in [0.9, 0.6, 0.4] {
            let bound = unbounded_peak * frac;
            if bound < pchls_fulib::units(t.max_single_op_power()) {
                continue;
            }
            let s = pasap(&g, &t, &c(bound), 500).unwrap();
            s.validate(&g, &t, None, Some(&c(bound))).unwrap();
        }
    }

    #[test]
    fn tighter_power_never_shortens_latency() {
        let (g, t) = hal_timing();
        let mut last = 0;
        for bound in [100.0, 40.0, 20.0, 12.0, 9.0] {
            let s = pasap(&g, &t, &c(bound), 500).unwrap();
            let lat = s.latency(&t);
            assert!(lat >= last, "bound {bound}: latency {lat} < {last}");
            last = lat;
        }
    }

    #[test]
    fn sub_single_op_budget_is_hopeless() {
        let (g, t) = hal_timing();
        let err = pasap(&g, &t, &c(5.0), 500).unwrap_err(); // mult_par needs 8.1
        assert!(matches!(err, ScheduleError::OpExceedsBudget { .. }));
    }

    #[test]
    fn tiny_horizon_is_infeasible() {
        let (g, t) = hal_timing();
        let err = pasap(&g, &t, &c(9.0), 6).unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn palap_respects_latency_and_power() {
        let (g, t) = hal_timing();
        for (bound, latency) in [(f64::INFINITY, 8), (12.0, 16), (9.0, 20)] {
            let s = palap(&g, &t, &c(bound), latency).unwrap();
            s.validate(&g, &t, Some(latency), Some(&c(bound))).unwrap();
        }
    }

    #[test]
    fn window_is_well_formed_with_infinite_power() {
        // With no power bound, pasap = asap and palap = alap, so every
        // op's window [pasap, palap] is non-empty. Under a *finite* bound
        // both ends are independent greedy heuristics and the window can
        // invert for individual ops (the synthesis loop treats the palap
        // end as soft for exactly this reason).
        let (g, t) = hal_timing();
        let latency = 16;
        let early = pasap(&g, &t, &PowerBudget::unbounded(), latency).unwrap();
        let late = palap(&g, &t, &PowerBudget::unbounded(), latency).unwrap();
        for id in g.node_ids() {
            assert!(
                early.start(id) <= late.start(id),
                "{id}: pasap {} > palap {}",
                early.start(id),
                late.start(id)
            );
        }
    }

    #[test]
    fn palap_with_infinite_power_matches_alap() {
        let (g, t) = hal_timing();
        let latency = 12;
        let p = palap(&g, &t, &PowerBudget::unbounded(), latency).unwrap();
        let a = crate::alap::alap(&g, &t, latency).unwrap();
        assert_eq!(p, a);
    }

    #[test]
    fn locked_ops_stay_put() {
        let (g, t) = hal_timing();
        let victim = g.topological()[5];
        let base = pasap(&g, &t, &c(12.0), 100).unwrap();
        let shifted = base.start(victim) + 3;
        let mut locked = LockedStarts::none(g.len());
        locked.lock(victim, shifted);
        let s = placed(&g, &t, &c(12.0), 100, &locked, PlacementCache::pasap_locked).unwrap();
        assert_eq!(s.start(victim), shifted);
        s.validate(&g, &t, None, Some(&c(12.0))).unwrap();
    }

    #[test]
    fn impossible_lock_reports_precedence_violation() {
        let (g, t) = hal_timing();
        let unbounded = PowerBudget::unbounded();
        // Lock an output to cycle 0: its producers cannot finish by then.
        let out = g.outputs().next().unwrap().id();
        let mut locked = LockedStarts::none(g.len());
        locked.lock(out, 0);
        let err = placed(
            &g,
            &t,
            &unbounded,
            100,
            &locked,
            PlacementCache::pasap_locked,
        );
        assert!(matches!(err, Err(ScheduleError::PrecedenceViolated { .. })));
        // Lock an input to the last cycle: its consumers cannot start
        // after it finishes.
        let input = g.inputs().next().unwrap().id();
        let mut locked = LockedStarts::none(g.len());
        locked.lock(input, 100 - t.delay(input));
        let err = placed(
            &g,
            &t,
            &unbounded,
            100,
            &locked,
            PlacementCache::palap_locked,
        );
        assert!(matches!(err, Err(ScheduleError::PrecedenceViolated { .. })));
    }

    #[test]
    fn conflicting_locks_overflow_the_budget() {
        let (g, t) = hal_timing();
        // Lock two parallel multipliers (8.1 each) into the same cycles
        // under a 10.0 budget.
        let muls: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.kind() == pchls_cdfg::OpKind::Mul)
            .map(|n| n.id())
            .collect();
        // Two independent first-level multiplications.
        let mut locked = LockedStarts::none(g.len());
        locked.lock(muls[0], 1);
        locked.lock(muls[1], 1);
        let err = placed(&g, &t, &c(10.0), 100, &locked, PlacementCache::pasap_locked);
        assert!(matches!(err, Err(ScheduleError::PowerExceeded { .. })));
    }

    #[test]
    fn locked_starts_bookkeeping() {
        let mut l = LockedStarts::none(4);
        assert!(!l.is_locked(NodeId::new(2)));
        l.lock(NodeId::new(2), 7);
        assert!(l.is_locked(NodeId::new(2)));
        assert_eq!(l.get(NodeId::new(2)), Some(7));
        assert_eq!(l.get(NodeId::new(3)), None);
        l.unlock(NodeId::new(2));
        assert!(!l.is_locked(NodeId::new(2)));
    }

    #[test]
    fn palap_locked_identity_lock_is_preserved() {
        let (g, t) = hal_timing();
        let latency = 16;
        let base = palap(&g, &t, &c(12.0), latency).unwrap();
        let victim = g.topological()[4];
        let mut locked = LockedStarts::none(g.len());
        locked.lock(victim, base.start(victim));
        let s = placed(
            &g,
            &t,
            &c(12.0),
            latency,
            &locked,
            PlacementCache::palap_locked,
        )
        .unwrap();
        assert_eq!(s.start(victim), base.start(victim));
        s.validate(&g, &t, Some(latency), Some(&c(12.0))).unwrap();
    }

    #[test]
    fn palap_locked_accepts_earlier_slot_with_infinite_power() {
        let (g, t) = hal_timing();
        let latency = 12; // critical path is 8, so inputs have mobility
        let victim = g.inputs().next().unwrap().id();
        let base = palap(&g, &t, &PowerBudget::unbounded(), latency).unwrap();
        assert!(base.start(victim) >= 1, "victim has mobility");
        let target = base.start(victim) - 1;
        let mut locked = LockedStarts::none(g.len());
        locked.lock(victim, target);
        let unbounded = PowerBudget::unbounded();
        let s = placed(
            &g,
            &t,
            &unbounded,
            latency,
            &locked,
            PlacementCache::palap_locked,
        )
        .unwrap();
        assert_eq!(s.start(victim), target);
        s.validate(&g, &t, Some(latency), None).unwrap();
    }

    #[test]
    fn palap_locked_rejects_lock_past_the_deadline() {
        let (g, t) = hal_timing();
        let victim = g.outputs().next().unwrap().id();
        let mut locked = LockedStarts::none(g.len());
        locked.lock(victim, 100);
        let unbounded = PowerBudget::unbounded();
        let err = placed(
            &g,
            &t,
            &unbounded,
            12,
            &locked,
            PlacementCache::palap_locked,
        );
        assert!(matches!(err, Err(ScheduleError::Infeasible { .. })));
    }

    #[test]
    fn budget_variants_reproduce_the_scalar_path_for_constant_budgets() {
        // A flat per-cycle envelope is the scalar bound spelled another
        // way: both build the same ledger.
        let (g, t) = hal_timing();
        let flat = PowerBudget::per_cycle(vec![12.0; 100]);
        assert_eq!(
            pasap(&g, &t, &flat, 100).unwrap(),
            pasap(&g, &t, &c(12.0), 100).unwrap()
        );
        assert_eq!(
            palap(&g, &t, &flat, 16).unwrap(),
            palap(&g, &t, &c(12.0), 16).unwrap()
        );
    }

    #[test]
    fn pasap_budget_stretches_into_the_loose_phase() {
        let (g, t) = hal_timing();
        // Nearly closed opening phase (only single cheap ops fit), wide
        // open afterwards: the schedule must shift its heavy cycles past
        // the breakpoint, unlike the scalar run at the loose bound.
        let budget = PowerBudget::steps(vec![(0, 9.0), (6, 100.0)]);
        let s = pasap(&g, &t, &budget, 200).unwrap();
        s.validate(&g, &t, None, Some(&budget)).unwrap();
        let loose = pasap(&g, &t, &c(100.0), 200).unwrap();
        assert_ne!(
            s, loose,
            "the tight opening phase must reshape the schedule"
        );
        let profile = PowerProfile::of(&s, &t);
        for c in 0..6u32.min(profile.cycles()) {
            assert!(profile.per_cycle()[c as usize] <= 9.0, "cycle {c}");
        }
    }

    #[test]
    fn locked_envelope_violations_name_the_violating_cycle() {
        use pchls_cdfg::CdfgBuilder;
        // A 6-cycle op locked at 0 under [(0,40),(5,15)]: the rejection
        // happens at cycle 5 (bound 15), and the diagnostic must say
        // so rather than reporting the start cycle's loose 40 bound, in
        // either direction (not palap's mirrored cycle 14).
        let mut b = CdfgBuilder::new("one");
        let x = b.input("x");
        b.output("o", x);
        let g = b.finish().unwrap();
        let t = TimingMap::from_entries(vec![
            crate::OpTiming {
                delay: 6,
                power: 20_000,
            },
            crate::OpTiming {
                delay: 1,
                power: 1_000,
            },
        ]);
        let budget = PowerBudget::steps(vec![(0, 40.0), (5, 15.0)]);
        let mut locked = LockedStarts::none(g.len());
        locked.lock(g.topological()[0], 0);
        for err in [
            placed(&g, &t, &budget, 20, &locked, PlacementCache::pasap_locked),
            placed(&g, &t, &budget, 20, &locked, PlacementCache::palap_locked),
        ] {
            match err {
                Err(ScheduleError::PowerExceeded {
                    cycle,
                    power,
                    bound,
                }) => {
                    assert_eq!(cycle, 5);
                    assert_eq!(bound, 15.0);
                    assert!(power > bound, "diagnostic must be self-consistent");
                }
                other => panic!("unexpected answer {other:?}"),
            }
        }
    }

    #[test]
    fn palap_budget_mirrors_the_envelope() {
        let (g, t) = hal_timing();
        // Tight tail: the latest-start schedule must respect the 9.0
        // bound in forward cycles [10, 16), which map to the reversed
        // opening — this only works if the envelope is time-mirrored.
        let budget = PowerBudget::steps(vec![(0, 40.0), (10, 9.0)]);
        let latency = 16;
        let s = palap(&g, &t, &budget, latency).unwrap();
        s.validate(&g, &t, Some(latency), Some(&budget)).unwrap();
    }
}
