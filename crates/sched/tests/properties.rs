//! Property-based tests over the scheduling algorithms on random DAGs.

use proptest::prelude::*;

use pchls_cdfg::{random_dag, RandomDagConfig};
use pchls_fulib::{paper_library, units, ModuleLibrary, ModuleSpec, SelectionPolicy};
use pchls_sched::{
    alap, asap, list_schedule, palap, pasap, two_step, Allocation, PowerBudget, PowerProfile,
    TimingMap,
};

prop_compose! {
    fn config()(
        ops in 2usize..50,
        inputs in 1usize..5,
        outputs in 1usize..3,
        mul_permille in 0u32..800,
        depth_bias in 0u32..5,
        seed in any::<u64>(),
    ) -> RandomDagConfig {
        RandomDagConfig { ops, inputs, outputs, mul_permille, depth_bias, seed }
    }
}

/// The paper library, or with `mul_delay` a variant whose `mult_par`
/// takes `mul_delay` cycles and `mult_ser` 48. Its multiplications
/// drive pasap/palap through power windows longer than 32 cycles on
/// horizons past 64, far beyond any paper-library module.
fn library(mul_delay: Option<u32>) -> ModuleLibrary {
    let paper = paper_library();
    let Some(delay) = mul_delay else {
        return paper;
    };
    ModuleLibrary::new(paper.modules().iter().map(|m| {
        let latency = match m.name() {
            "mult_par" => delay,
            "mult_ser" => 48,
            _ => m.latency(),
        };
        ModuleSpec::new(
            m.name(),
            m.ops().iter().copied(),
            m.area(),
            latency,
            units(m.power()),
        )
    }))
    .expect("paper module names are unique")
}

prop_compose! {
    /// The paper's multipliers half the time, otherwise a `mult_par` of
    /// 33–47 cycles.
    fn mul_delay()(slow in any::<bool>(), delay in 33u32..48) -> Option<u32> {
        slow.then_some(delay)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// pasap always respects the power bound and dependences, and with an
    /// infinite bound equals asap.
    #[test]
    fn pasap_respects_bound_and_degenerates_to_asap(
        cfg in config(),
        frac in 0.3f64..1.0,
        mul_delay in mul_delay(),
    ) {
        let g = random_dag(&cfg);
        let lib = library(mul_delay);
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let base = asap(&g, &t);
        prop_assert_eq!(&pasap(&g, &t, &PowerBudget::unbounded(), 10_000).unwrap(), &base);

        let peak = PowerProfile::of(&base, &t).peak();
        let bound = (peak * frac).max(units(t.max_single_op_power()));
        let s = pasap(&g, &t, &PowerBudget::constant(bound), 10_000).unwrap();
        s.validate(&g, &t, None, Some(&PowerBudget::constant(bound))).unwrap();
    }

    /// pasap under a stepwise budget envelope respects every cycle's
    /// own bound, and a flat per-cycle spelling of a constant envelope
    /// reproduces the constant schedule exactly.
    #[test]
    fn pasap_budget_respects_the_envelope(
        cfg in config(),
        frac in 0.5f64..1.0,
        split in 1u32..40,
        mul_delay in mul_delay(),
    ) {
        let g = random_dag(&cfg);
        let lib = library(mul_delay);
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let base = asap(&g, &t);
        let peak = PowerProfile::of(&base, &t).peak();
        let lo = (peak * frac).max(units(t.max_single_op_power()));

        // Flat per-cycle envelope ≡ constant envelope, bit for bit.
        let constant = pasap(&g, &t, &PowerBudget::constant(lo), 10_000).unwrap();
        let flat = pasap(&g, &t, &PowerBudget::per_cycle(vec![lo; 64]), 10_000).unwrap();
        prop_assert_eq!(&constant, &flat);

        // Loose opening phase, tight tail: the schedule must satisfy
        // the per-cycle bounds everywhere.
        let budget = PowerBudget::steps(vec![(0, peak * 2.0), (split, lo)]);
        let s = pasap(&g, &t, &budget, 10_000).unwrap();
        s.validate(&g, &t, None, Some(&budget)).unwrap();
    }

    /// palap respects the latency it is given and the power bound.
    #[test]
    fn palap_respects_latency_and_bound(
        cfg in config(),
        slack in 0u32..20,
        mul_delay in mul_delay(),
    ) {
        let g = random_dag(&cfg);
        let lib = library(mul_delay);
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let base = asap(&g, &t);
        let peak = PowerProfile::of(&base, &t).peak();
        // Start from a latency pasap itself achieves, plus slack.
        let lat = pasap(&g, &t, &PowerBudget::constant(peak), 10_000).unwrap().latency(&t) + slack;
        let s = palap(&g, &t, &PowerBudget::constant(peak), lat).unwrap();
        s.validate(&g, &t, Some(lat), Some(&PowerBudget::constant(peak))).unwrap();
    }

    /// alap mobility windows are well-formed: asap <= alap pointwise.
    #[test]
    fn asap_alap_windows_are_ordered(cfg in config(), slack in 0u32..16) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::MinArea);
        let early = asap(&g, &t);
        let lat = early.latency(&t) + slack;
        let late = alap(&g, &t, lat).unwrap();
        for id in g.node_ids() {
            prop_assert!(early.start(id) <= late.start(id));
        }
    }

    /// List scheduling respects resource limits and is dependence-valid.
    #[test]
    fn list_schedule_is_valid(cfg in config(), units in 1usize..4) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let modules: Vec<_> = g
            .nodes()
            .iter()
            .map(|n| lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
            .collect();
        let alloc = Allocation::from_pairs(lib.ids().map(|m| (m, units)));
        let s = list_schedule(&g, &lib, &modules, &alloc, &PowerBudget::unbounded()).unwrap();
        let t = TimingMap::from_modules(&g, &lib, &modules);
        s.validate(&g, &t, None, None).unwrap();
        // Resource check: concurrency per module never exceeds the count.
        let latency = s.latency(&t);
        for m in lib.ids() {
            for c in 0..latency {
                let busy = g
                    .node_ids()
                    .filter(|&id| modules[id.index()] == m)
                    .filter(|&id| s.start(id) <= c && c < s.finish(id, &t))
                    .count();
                prop_assert!(busy <= units, "module {m} uses {busy} units at cycle {c}");
            }
        }
    }

    /// The two-step baseline never violates dependences or latency, and
    /// when it claims to meet power, it actually does.
    #[test]
    fn two_step_claims_are_honest(cfg in config(), frac in 0.2f64..1.2, slack in 0u32..12) {
        let g = random_dag(&cfg);
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let base = asap(&g, &t);
        let peak = PowerProfile::of(&base, &t).peak();
        let bound = peak * frac;
        let lat = base.latency(&t) + slack;
        let out = two_step(&g, &t, lat, &PowerBudget::constant(bound)).unwrap();
        out.schedule.validate(&g, &t, Some(lat), None).unwrap();
        if out.met_power {
            out.schedule.validate(&g, &t, Some(lat), Some(&PowerBudget::constant(bound))).unwrap();
        }
    }
}

/// The ledger holding `locked`'s reservations over `horizon` cycles
/// under `budget`, as `reserve_locked` builds it for every locked
/// placement outside the synthesis kernel.
fn held(
    g: &pchls_cdfg::Cdfg,
    t: &TimingMap,
    budget: &PowerBudget,
    horizon: u32,
    locked: &pchls_sched::LockedStarts,
) -> Result<pchls_sched::PowerLedger, pchls_sched::ScheduleError> {
    let mut ledger = pchls_sched::PowerLedger::under(horizon, budget);
    pchls_sched::reserve_locked(&mut ledger, g.len(), t, budget, |id| locked.get(id))?;
    Ok(ledger)
}

mod locked_props {
    use super::*;
    use pchls_sched::{LockedStarts, PlacementCache};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Locking a subset of operations to their positions in a valid
        /// pasap schedule keeps the problem feasible, preserves the
        /// locked starts, and still meets the power bound.
        #[test]
        fn relocking_a_valid_schedule_is_feasible(
            cfg in config(),
            frac in 0.4f64..1.0,
            lock_mask in any::<u64>(),
        ) {
            let g = random_dag(&cfg);
            let lib = paper_library();
            let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
            let peak = PowerProfile::of(&asap(&g, &t), &t).peak();
            let bound = (peak * frac).max(units(t.max_single_op_power()));
            let budget = PowerBudget::constant(bound);
            let horizon = 10_000;
            let base = pasap(&g, &t, &budget, horizon).unwrap();

            let mut locked = LockedStarts::none(g.len());
            for id in g.node_ids() {
                if lock_mask >> (id.index() % 64) & 1 == 1 {
                    locked.lock(id, base.start(id));
                }
            }
            let held = held(&g, &t, &budget, horizon, &locked).expect("a valid schedule's locks fit");
            let s = PlacementCache::new(&g, &budget, horizon)
                .pasap_locked(&t, &locked, &held)
                .expect("relocking a valid schedule stays feasible");
            for id in g.node_ids() {
                if let Some(fixed) = locked.get(id) {
                    prop_assert_eq!(s.start(id), fixed);
                }
            }
            s.validate(&g, &t, None, Some(&budget)).unwrap();
        }
    }
}

mod placement_cache_props {
    use super::*;
    use pchls_sched::{LockedStarts, OpTiming, PlacementCache, PowerInterval, PowerLedger};

    /// Locks the ops picked by `mask` (bit `i % 64` for node `i`): at
    /// their start in `base` when there is one, nudged one cycle later
    /// where `nudge` has the bit set (so some lock sets are infeasible),
    /// otherwise at an arbitrary cycle below `horizon`.
    fn lock_set(
        len: usize,
        base: Option<&pchls_sched::Schedule>,
        horizon: u32,
        mask: u64,
        nudge: u64,
    ) -> LockedStarts {
        let mut locked = LockedStarts::none(len);
        for i in 0..len {
            let bit = |word: u64| word >> (i % 64) & 1 == 1;
            if !bit(mask) {
                continue;
            }
            let id = pchls_cdfg::NodeId::new(i as u32);
            let start = match base {
                Some(s) => s.start(id) + u32::from(bit(nudge)),
                None => (mask ^ nudge).rotate_left(i as u32) as u32 % horizon.max(1),
            };
            locked.lock(id, start);
        }
        locked
    }

    /// A timing map over `n` ops from 64 delays and powers, the ops
    /// `zero_power` picks drawing none.
    fn timing(n: usize, delays: &[u32], powers: &[u64], zero_power: u64) -> TimingMap {
        TimingMap::from_entries(
            (0..n)
                .map(|i| OpTiming {
                    delay: delays[i % 64],
                    power: if zero_power >> (i % 64) & 1 == 1 {
                        0
                    } else {
                        powers[i % 64]
                    },
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One `PlacementCache` per (budget, horizon), reused across
        /// three lock sets, answers every `pasap_locked` /
        /// `palap_locked` call exactly like a fresh cache, `Ok` schedule
        /// or `Err` (the held ledger's own included), records exactly the
        /// comparisons the fresh caches record over the same calls, and
        /// recomputes its orders only when a delay changes. The second
        /// lock set runs on kept orders and reloaded ledgers; every delay
        /// moves before the third.
        #[test]
        fn cached_placements_match_fresh_caches(
            cfg in config(),
            delays in proptest::collection::vec(1u32..5, 64),
            powers in proptest::collection::vec(0u64..6_000, 64),
            zero_power in any::<u64>(),
            masks in proptest::collection::vec(any::<u64>(), 4),
            nudges in proptest::collection::vec(any::<u64>(), 4),
            frac in 0.8f64..3.0,
            stretch in 6u32..17,
        ) {
            let g = random_dag(&cfg);
            let n = g.len();
            let mut t = timing(n, &delays, &powers, zero_power);
            for round in 0..3 {
                let single = units(t.max_single_op_power());
                let bound = single * frac;
                // A constant budget, then a stepwise one (tight opening,
                // looser tail), then one whose per-cycle bounds alternate
                // at random between the two.
                let budget = match round {
                    0 => PowerBudget::constant(bound),
                    1 => PowerBudget::steps(vec![(0, bound), (stretch, bound + single)]),
                    _ => PowerBudget::per_cycle(
                        (0..64)
                            .map(|c| if masks[c % 4] >> c & 1 == 1 { bound + single } else { bound })
                            .collect(),
                    ),
                };
                // From a little below the unlocked pasap latency up to
                // twice it; an unplaceable op falls back to the asap one.
                let natural = pasap(&g, &t, &budget, 10_000)
                    .unwrap_or_else(|_| asap(&g, &t))
                    .latency(&t);
                let horizon = (natural * stretch / 8).max(1);
                let base = pasap(&g, &t, &budget, horizon).ok();
                let mut cache = PlacementCache::new(&g, &budget, horizon);
                let mut fresh_seen = PowerInterval::EVERY;
                // Placements run before and after the delay change: each
                // computes one order per direction.
                let mut placed = [false; 2];
                for repeat in 0..3 {
                    if repeat == 2 {
                        // Every delay moves (1→2→3→4→1): both cached
                        // orders are stale and must be recomputed.
                        for id in g.node_ids() {
                            let old = t.of(id);
                            t.set(id, OpTiming { delay: old.delay % 4 + 1, ..old });
                        }
                    }
                    // About a quarter of the ops locked, an eighth of
                    // those nudged.
                    let word = |w: &[u64], k: usize| w[(round + repeat + k) % 4];
                    let mask = word(&masks, 0) & word(&masks, 1);
                    let nudge = word(&nudges, 0) & word(&nudges, 1) & word(&nudges, 2);
                    let locked = lock_set(n, base.as_ref(), horizon, mask, nudge);
                    let held = held(&g, &t, &budget, horizon, &locked);
                    placed[repeat / 2] |= held.is_ok();
                    let mut fresh = PlacementCache::new(&g, &budget, horizon);
                    let early = held.clone().and_then(|h| fresh.pasap_locked(&t, &locked, &h));
                    let cached = held.clone().and_then(|h| cache.pasap_locked(&t, &locked, &h));
                    prop_assert_eq!(cached, early);
                    let late = held.clone().and_then(|h| fresh.palap_locked(&t, &locked, &h));
                    let cached = held.and_then(|h| cache.palap_locked(&t, &locked, &h));
                    prop_assert_eq!(cached, late);
                    fresh_seen.merge(fresh.interval());
                }
                prop_assert_eq!(cache.interval(), fresh_seen);
                let epochs = placed.iter().filter(|&&p| p).count() as u64;
                prop_assert_eq!(cache.orders_computed(), 2 * epochs);
            }
        }

        /// Under a constant budget, the one comparison a load records
        /// (the held peak) is the interval `reserve_locked` leaves on
        /// the ledger it builds, in either time direction, and a forward
        /// load reserves what that ledger does.
        #[test]
        fn a_load_records_what_reserve_locked_records(
            cfg in config(),
            delays in proptest::collection::vec(1u32..5, 64),
            powers in proptest::collection::vec(0u64..6_000, 64),
            zero_power in any::<u64>(),
            mask in any::<u64>(),
            frac in 1.0f64..3.0,
            unbounded in any::<bool>(),
            slack in 0u32..8,
        ) {
            let g = random_dag(&cfg);
            let t = timing(g.len(), &delays, &powers, zero_power);
            let budget = if unbounded {
                PowerBudget::unbounded()
            } else {
                PowerBudget::constant(units(t.max_single_op_power()) * frac)
            };
            // A subset of a valid schedule's ops, locked where it starts
            // them, always fits.
            let base = pasap(&g, &t, &budget, 10_000).expect("every op fits the bound");
            let horizon = base.latency(&t) + slack;
            let locked = lock_set(g.len(), Some(&base), horizon, mask, 0);
            let fresh = held(&g, &t, &budget, horizon, &locked).expect("a valid schedule's locks fit");
            let mut forward = PowerLedger::under(horizon, &budget);
            forward.load(&fresh);
            prop_assert_eq!(&forward, &fresh);
            prop_assert_eq!(forward.interval(), fresh.interval());
            let mut mirrored = PowerLedger::under(horizon, &budget);
            mirrored.load_mirrored(&fresh);
            prop_assert_eq!(mirrored.interval(), fresh.interval());
        }
    }
}

mod ledger_props {
    use super::*;
    use pchls_sched::{NaivePowerLedger, PowerBudget, PowerLedger};

    /// One random ledger operation: `(opcode, start, delay, power)`,
    /// power in quanta.
    type LedgerOp = (u8, u32, u32, u64);

    /// Drives the slack [`PowerLedger`] and the reference
    /// [`NaivePowerLedger`] through the same operation sequence under
    /// `budget`, asserting every query answer matches along the way,
    /// that the per-cycle reservations agree, and that releasing every
    /// live reservation returns the ledger to its empty state exactly.
    fn check_agreement(
        horizon: u32,
        budget: &PowerBudget,
        ops: &[LedgerOp],
    ) -> Result<(), TestCaseError> {
        let mut ledger = PowerLedger::under(horizon, budget);
        let mut naive = NaivePowerLedger::under(horizon, budget);
        prop_assert_eq!(ledger.horizon(), naive.horizon());
        // Live reservations: a release returns one of them, as the
        // synthesis loop's candidate undo does.
        let mut live: Vec<(u32, u32, u64)> = Vec::new();
        for &(op, start, delay, power) in ops {
            match op % 5 {
                0 => prop_assert_eq!(
                    ledger.fits(start, delay, power),
                    naive.fits(start, delay, power),
                    "fits({start}, {delay}, {power})"
                ),
                1 => {
                    prop_assert_eq!(
                        ledger.earliest_fit(start, delay, power),
                        naive.earliest_fit(start, delay, power),
                        "earliest_fit({start}, {delay}, {power})"
                    );
                    // The deadline-bounded search the synthesis kernel
                    // actually calls. Oracle: an unbounded naive search
                    // whose result must also finish by the deadline —
                    // the earliest fit below the bound is the earliest
                    // fit overall whenever one qualifies, so the filter
                    // is exact (including the `delay == 0` arm).
                    let deadline = start / 2 + delay + horizon / 4;
                    prop_assert_eq!(
                        ledger.earliest_fit_by(start, delay, power, deadline),
                        naive
                            .earliest_fit(start, delay, power)
                            .filter(|&s| s + delay <= deadline.min(horizon)),
                        "earliest_fit_by({start}, {delay}, {power}, {deadline})"
                    );
                }
                2 => {
                    let (a, b) = (
                        ledger.fits(start, delay, power),
                        naive.fits(start, delay, power),
                    );
                    prop_assert_eq!(a, b);
                    if a {
                        ledger.reserve(start, delay, power);
                        naive.reserve(start, delay, power);
                        live.push((start, delay, power));
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let (s, d, p) = live.swap_remove(start as usize % live.len());
                        ledger.release(s, d, p);
                        naive.release(s, d, p);
                    }
                }
                _ => {
                    // The violating cycle a failed fit reports. Oracle:
                    // none for a fit, the horizon for a window past it,
                    // otherwise the window's first cycle that cannot
                    // take `power` on its own.
                    let expected = if naive.fits(start, delay, power) {
                        None
                    } else if start + delay > horizon {
                        Some(horizon)
                    } else {
                        (start..start + delay).find(|&c| !naive.fits(c, 1, power))
                    };
                    prop_assert_eq!(
                        ledger.first_unfit_cycle(start, delay, power),
                        expected,
                        "first_unfit_cycle({start}, {delay}, {power})"
                    );
                }
            }
        }
        for c in 0..horizon {
            prop_assert_eq!(ledger.used(c), naive.used(c), "cycle {} diverged", c);
        }
        for (s, d, p) in live {
            ledger.release(s, d, p);
        }
        prop_assert_eq!(ledger, PowerLedger::under(horizon, budget));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Under a constant budget, the ledger and the naive reference
        /// agree on every `fits` / `earliest_fit` / `first_unfit_cycle` /
        /// `reserve` / `release` under random operation sequences, on
        /// horizons from 0 to 200 cycles.
        #[test]
        fn constant_ledger_agrees_with_naive(
            horizon in 0u32..200,
            budget_step in 0u8..5,
            ops in proptest::collection::vec(
                (0u8..15, 0u32..220, 0u32..24, 0u64..12_500),
                1..80,
            ),
        ) {
            let budget = match budget_step {
                0 => f64::INFINITY,
                b => f64::from(b) * 7.5,
            };
            check_agreement(horizon, &PowerBudget::constant(budget), &ops)?;
        }

        /// Under random **stepwise** envelopes the two ledgers agree on
        /// every operation, including budgets whose phases are all
        /// equal.
        #[test]
        fn stepwise_envelope_ledger_agrees_with_naive(
            horizon in 0u32..200,
            raw_steps in proptest::collection::vec((0u32..200, 0u8..6), 1..6),
            ops in proptest::collection::vec(
                (0u8..15, 0u32..220, 0u32..24, 0u64..12_500),
                1..80,
            ),
        ) {
            // Strictly increasing cycles, first step at 0; bound levels
            // quantized so equal-phase envelopes occur often.
            let mut steps: Vec<(u32, f64)> = Vec::new();
            for (i, &(c, level)) in raw_steps.iter().enumerate() {
                let cycle = if i == 0 { 0 } else { c };
                let bound = match level {
                    0 => f64::INFINITY,
                    l => f64::from(l) * 6.25,
                };
                if steps.last().is_none_or(|&(prev, _)| cycle > prev) {
                    steps.push((cycle, bound));
                }
            }
            check_agreement(horizon, &PowerBudget::steps(steps), &ops)?;
        }

        /// Under random **per-cycle** envelopes (an arbitrary, mostly
        /// off-lattice bound per cycle), the two ledgers agree on every
        /// operation.
        #[test]
        fn per_cycle_envelope_ledger_agrees_with_naive(
            bounds in proptest::collection::vec(0f64..40.0, 1..200),
            ops in proptest::collection::vec(
                (0u8..15, 0u32..220, 0u32..24, 0u64..12_500),
                1..80,
            ),
        ) {
            let horizon = bounds.len() as u32;
            check_agreement(horizon, &PowerBudget::per_cycle(bounds), &ops)?;
        }

        /// The window scans answer exactly like the naive cycle scan on
        /// windows of 0–79 cycles over horizons of 65–299, far longer
        /// than any module delay, under a flat and a two-phase budget.
        #[test]
        fn chunked_leaf_scans_agree_with_naive_across_regimes(
            horizon in 65u32..300,
            envelope in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..15, 0u32..300, 0u32..80, 0u64..12_500),
                1..60,
            ),
        ) {
            let budget = if envelope {
                PowerBudget::steps(vec![(0, 25.0), (horizon / 2, 10.0)])
            } else {
                PowerBudget::constant(20.0)
            };
            check_agreement(horizon, &budget, &ops)?;
        }

        /// Long windows on large horizons keep the offset search's jump
        /// past the rightmost violating cycle under pressure (intervals
        /// up to 59 cycles, tight budget).
        #[test]
        fn long_window_earliest_fit_matches_naive_scan(
            horizon in 65u32..400,
            ops in proptest::collection::vec(
                (0u32..380, 1u32..40, 0u64..6_000),
                1..40,
            ),
            probes in proptest::collection::vec((0u32..380, 1u32..60, 0u64..6_000), 1..30),
        ) {
            let budget = PowerBudget::constant(10.0);
            let mut ledger = PowerLedger::under(horizon, &budget);
            let mut naive = NaivePowerLedger::under(horizon, &budget);
            for &(start, delay, power) in &ops {
                if ledger.fits(start, delay, power) && naive.fits(start, delay, power) {
                    ledger.reserve(start, delay, power);
                    naive.reserve(start, delay, power);
                }
            }
            for &(start, delay, power) in &probes {
                prop_assert_eq!(
                    ledger.earliest_fit(start, delay, power),
                    naive.earliest_fit(start, delay, power),
                    "earliest_fit({start}, {delay}, {power})"
                );
                let deadline = start / 2 + delay + horizon / 3;
                prop_assert_eq!(
                    ledger.earliest_fit_by(start, delay, power, deadline),
                    naive
                        .earliest_fit(start, delay, power)
                        .filter(|&s| s + delay <= deadline.min(horizon)),
                    "earliest_fit_by({start}, {delay}, {power}, {deadline})"
                );
            }
        }
    }
}

mod quanta_props {
    use super::*;
    use pchls_fulib::bound_quanta;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Summing library powers in quanta and comparing against the
        /// bound's quanta decides every prefix of a random multiset
        /// exactly as the `f64` comparison `sum ≤ b + 1e-9` does. The
        /// bound is drawn uniformly, from an auto-grid-style
        /// `lo + (hi − lo)·i/(n − 1)` sweep, or within 1e-12 of a
        /// lattice point that one of the prefix sums hits exactly.
        #[test]
        fn exact_and_tolerant_comparisons_agree(
            picks in proptest::collection::vec(0usize..8, 0..40),
            kind in 0u8..3,
            uniform in 0f64..200.0,
            lo in 0f64..10.0,
            hi in 10f64..200.0,
            i in 0usize..64,
            n in 2usize..64,
            anchor in 0usize..41,
            jitter in -1e-12f64..1e-12,
        ) {
            let lib = paper_library();
            let powers: Vec<u64> = picks.iter().map(|&m| lib.modules()[m].power()).collect();
            let b = match kind {
                0 => uniform,
                1 => lo + (hi - lo) * (i % n) as f64 / (n - 1) as f64,
                _ => {
                    let lattice: u64 = powers[..anchor.min(powers.len())].iter().sum();
                    (units(lattice) + jitter).max(0.0)
                }
            };
            let cap = bound_quanta(b);
            let (mut exact, mut float) = (0u64, 0.0f64);
            for power in powers {
                exact += power;
                float += units(power);
                prop_assert_eq!(exact <= cap, float <= b + 1e-9, "sum {} against {}", float, b);
            }
        }
    }
}

mod interval_props {
    use super::*;
    use pchls_fulib::bound_quanta;
    use pchls_sched::{PowerInterval, PowerLedger};

    /// Every answer a fresh ledger under constant `bound` gives to `ops`
    /// (`(opcode, start, delay, power)`, power in quanta; a yes/no
    /// answer as `Some(0)` / `None`), and the ledger's interval after
    /// them.
    fn answers(
        horizon: u32,
        bound: f64,
        ops: &[(u8, u32, u32, u64)],
    ) -> (Vec<Option<u32>>, PowerInterval) {
        let mut ledger = PowerLedger::under(horizon, &PowerBudget::constant(bound));
        let mut live: Vec<(u32, u32, u64)> = Vec::new();
        let mut out = Vec::new();
        for &(op, start, delay, power) in ops {
            match op % 6 {
                0 => out.push(ledger.fits(start, delay, power).then_some(0)),
                1 => {
                    out.push(ledger.earliest_fit(start, delay, power));
                    let deadline = start / 2 + delay + horizon / 4;
                    out.push(ledger.earliest_fit_by(start, delay, power, deadline));
                }
                2 => {
                    let fits = ledger.fits(start, delay, power);
                    if fits {
                        ledger.reserve(start, delay, power);
                        live.push((start, delay, power));
                    }
                    out.push(fits.then_some(0));
                }
                3 => {
                    if !live.is_empty() {
                        let (s, d, p) = live.swap_remove(start as usize % live.len());
                        ledger.release(s, d, p);
                    }
                }
                4 => out.push(ledger.first_unfit_cycle(start, delay, power)),
                _ => out.push(ledger.admits(power).then_some(0)),
            }
        }
        (out, ledger.interval())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A ledger's interval is an exact equivalence class of constant
        /// bounds: replayed at either end of it, or inside, the same
        /// operations get the same answers and leave the same interval.
        #[test]
        fn ledger_intervals_are_exact(
            horizon in 1u32..120,
            bound in 1.0f64..40.0,
            pick in 0.0f64..1.0,
            ops in proptest::collection::vec(
                (0u8..18, 0u32..130, 0u32..24, 0u64..12_500),
                1..80,
            ),
        ) {
            let (expected, interval) = answers(horizon, bound, &ops);
            prop_assert!(interval.covers(bound_quanta(bound)), "{:?} misses {}", interval, bound);
            let top = if interval.is_bounded() { interval.hi } else { interval.lo + 50_000 };
            let inside = interval.lo + ((top - interval.lo) as f64 * pick) as u64;
            for q in [interval.lo, top - 1, inside.min(top - 1)] {
                let (again, other) = answers(horizon, units(q), &ops);
                prop_assert_eq!(&again, &expected, "answers moved at {} in {:?}", q, interval);
                prop_assert_eq!(other, interval, "the interval moved at {}", q);
            }
        }
    }
}
