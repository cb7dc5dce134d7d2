//! The combined power-constrained scheduling/allocation/binding loop.

use pchls_bind::{Binding, InstanceId, INTERCONNECT_WEIGHT};
use pchls_cdfg::{Cdfg, NodeId, NodeSet, OpKind};
use pchls_fulib::{ModuleId, ModuleLibrary};
use pchls_sched::{
    LockedStarts, OpTiming, PlacementCache, PowerInterval, PowerLedger, Schedule, ScheduleError,
    TimingMap,
};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;
use std::sync::OnceLock;

use crate::constraints::SynthesisConstraints;
use crate::design::{SynthesisStats, SynthesizedDesign};
use crate::engine::{CompiledGraph, Engine, Progress};
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;

/// One greedy decision over the compatibility structure, in decreasing
/// order of preference:
///
/// * merge an operation onto an existing instance,
/// * merge **two** unbound operations onto a new shared instance (the
///   Jou-style clique-forming merge — this is what makes expensive units
///   like multipliers fold before cheap I/O units get a chance to eat the
///   schedule slack),
/// * open a dedicated instance for one operation (fallback; negative
///   score so it only wins when nothing can be shared).
///
/// Decisions rank in field order, which `Ord` derives: best score first,
/// then earlier start, then smaller op id, made total by the structural
/// [`Key`]. The order does not depend on which decisions were scored or
/// in what order; `module` and `target` never decide it, since the key
/// alone tells an iteration's decisions apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Decision {
    /// Ten times the area the decision saves plus `ic_weight` per shared
    /// connection (see [`INTERCONNECT_WEIGHT`]), reversed so the highest
    /// score ranks first.
    score: Reverse<i64>,
    start: u32,
    op: NodeId,
    key: Key,
    module: ModuleId,
    target: Target,
}

/// The structural tie-break of a decision, independent of the order in
/// which decisions are scored:
///
/// * singles: `(0, op, module pos, instance pos)`, the dedicated-instance
///   fallback taking instance pos `u32::MAX`;
/// * pair merges: `(1, min id, max id, module pos)`.
///
/// Module positions index `modules_for` of the decision's `op` (a pair's
/// `first`); instance positions index the module's open instances in
/// ascending id. Among decisions tied on score, start and op, every single
/// thus ranks before every pair; singles by op, then module, then
/// instance before the fallback; pairs by their two ids, then module.
type Key = (u8, u32, u32, u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Target {
    Existing(InstanceId),
    Fresh,
    FreshPair { partner: NodeId, partner_start: u32 },
}

/// The combined loop over precompiled shared artifacts — the engine's
/// library indexes and the compiled graph's rank and bootstrap seeds.
/// All public entry points
/// ([`Session::synthesize`](crate::Session::synthesize), sweeps,
/// batches) funnel here. Besides the answer, it returns every bound
/// comparison the run decided: under a constant budget, the
/// [`PowerInterval`] of bound quanta over which this same answer comes
/// back (an error included).
pub(crate) fn synthesize_recorded(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: &SynthesisConstraints,
    options: &SynthesisOptions,
    hook: Option<&mut dyn FnMut(Progress) -> ControlFlow<()>>,
) -> (Result<SynthesizedDesign, SynthesisError>, PowerInterval) {
    let (result, interval, tally) =
        Kernel::new(engine, compiled, constraints, options).synthesize(hook);
    tally.publish();
    (result, interval)
}

/// Kernel effort summed over one synthesize call: pair merges whose
/// exact score was computed (ledger probes), pair merges skipped on
/// their score bound or rank key, the pairs the walk checked one by one,
/// the run's [`PlacementCache`] work
/// (bootstrap's included: placement orders computed, pasap and palap
/// placements, and the unlocked ops they searched a start for),
/// rankings of each [`Block`], the kept tables' `start0` entries and
/// instance fits, kept or recomputed, and the op rows a first-block
/// fill skipped whole or re-derived entry by entry. Published to the
/// global registry once per call, not per pair or schedule.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    probed: u64,
    pruned: u64,
    visited: u64,
    orders: u64,
    /// `[pasap, palap]` placements.
    placements: [u64; 2],
    ops_placed: u64,
    first_rankings: u64,
    full_rankings: u64,
    entries_kept: u64,
    entries_recomputed: u64,
    fits_kept: u64,
    fits_recomputed: u64,
    rows_skipped: u64,
    rows_visited: u64,
}

impl Tally {
    fn publish(&self) {
        static COUNTERS: OnceLock<[pchls_obs::Counter; 16]> = OnceLock::new();
        let counters = COUNTERS.get_or_init(|| {
            [
                "pchls_kernel_runs_total",
                "pchls_kernel_pair_probes_total",
                "pchls_kernel_pairs_pruned_total",
                "pchls_kernel_pairs_visited_total",
                "pchls_kernel_placement_orders_total",
                "pchls_kernel_placements_total{direction=\"pasap\"}",
                "pchls_kernel_placements_total{direction=\"palap\"}",
                "pchls_kernel_ops_placed_total",
                "pchls_kernel_rankings_total{block=\"first\"}",
                "pchls_kernel_rankings_total{block=\"full\"}",
                "pchls_kernel_table_entries_total{outcome=\"kept\"}",
                "pchls_kernel_table_entries_total{outcome=\"recomputed\"}",
                "pchls_kernel_instance_fits_total{outcome=\"kept\"}",
                "pchls_kernel_instance_fits_total{outcome=\"recomputed\"}",
                "pchls_kernel_op_rows_total{outcome=\"skipped\"}",
                "pchls_kernel_op_rows_total{outcome=\"visited\"}",
            ]
            .map(|name| pchls_obs::global().counter(name))
        });
        let values = [
            1,
            self.probed,
            self.pruned,
            self.visited,
            self.orders,
            self.placements[0],
            self.placements[1],
            self.ops_placed,
            self.first_rankings,
            self.full_rankings,
            self.entries_kept,
            self.entries_recomputed,
            self.fits_kept,
            self.fits_recomputed,
            self.rows_skipped,
            self.rows_visited,
        ];
        for (counter, value) in counters.iter().zip(values) {
            counter.add(value);
        }
    }
}

/// One kernel run: the whole state of the greedy loop. Each iteration
/// ranks the decisions ([`Kernel::rank`]), commits the best one that
/// leaves the rest power-feasible ([`Kernel::attempt`]), and when every
/// one fails locks the remaining operations ([`Kernel::backtrack`]).
/// Every power comparison lands in `placer` or `ledger`, which outlive
/// the loop, so the record survives every exit path.
struct Kernel<'a> {
    graph: &'a Cdfg,
    library: &'a ModuleLibrary,
    /// The compiled topological rank, indexed by op: a pair merge runs
    /// its lower-ranked op first.
    topo_rank: &'a [u32],
    /// Per-kind module candidate lists, indexed by [`OpKind::index`]:
    /// owned by the engine, computed once per library, not per point.
    kind_modules: &'a [Vec<ModuleId>],
    constraints: &'a SynthesisConstraints,
    options: &'a SynthesisOptions,
    /// The weight of a shared connection in a score:
    /// [`INTERCONNECT_WEIGHT`], or 0 with interconnect scoring off.
    ic_weight: i64,
    /// Every pasap/palap of the run, bootstrap's included, under the
    /// run's budget and latency: the placement order is reused while the
    /// delays stay put, and each direction's ledger for the whole run.
    placer: PlacementCache<'a>,
    /// The per-cycle power reserved by locked operations, maintained
    /// incrementally: candidate attempts reserve on apply and release
    /// (exactly, in integer quanta) on undo, instead of rebuilding the
    /// ledger from the whole locked set every iteration. A backtrack
    /// rebuilds it in place. Every placement starts from it.
    ledger: PowerLedger,
    timing: TimingMap,
    /// Per-operation module estimates, chosen by bootstrap.
    est_modules: Vec<ModuleId>,
    binding: Binding,
    locked: LockedStarts,
    /// The not-yet-bound operations in ascending id order (the scoring
    /// iteration order); a commit removes the ops it binds.
    unbound_vec: Vec<NodeId>,
    /// Power-feasible early starts under the current locks (see
    /// [`Kernel::refit`]).
    provisional: Schedule,
    /// Whether a commit displaced an operation or changed its module
    /// timing since `provisional` was computed.
    dirty: bool,
    /// The reversed heuristic's late starts under the current locks;
    /// `None` when it failed, and `provisional` stands in.
    palap: Option<Schedule>,
    stats: SynthesisStats,
    tally: Tally,
    // Iteration-scoped work buffers, allocated once per run. They only
    // grow: bound ops never move or change timing, and instances are
    // never dropped before the end.
    /// Busy intervals per instance, indexed by instance id.
    busy: Vec<Vec<(u32, u32)>>,
    /// Open instances per library module, ascending instance id.
    by_module: Vec<Vec<InstanceId>>,
    /// Instances listed in `by_module` (every id below it).
    listed: usize,
    // The kept single-decision tables (DESIGN.md §6, "Kept tables"):
    // each first block's `fill_tables` re-derives only the ops whose
    // window moved or whose answers a commit since the previous one can
    // have changed.
    /// What each commit since the last `fill_tables` locked: the
    /// instance and the window `[start, start + delay)` of every op it
    /// bound (the op, plus the partner of a `FreshPair`). Every
    /// reservation the ledger gains and every busy interval an instance
    /// gains is one of these windows.
    committed: Vec<(InstanceId, u32, u32)>,
    /// Set by a backtrack (and at the start): the next `fill_tables`
    /// keeps nothing.
    stale: bool,
    /// What the fills keep per op, indexed by op.
    rows: Vec<OpRow>,
    /// `candidate_start(op, m, 0)`, flattened as
    /// `op.index() * library.len() + m.index()`; current for every
    /// unbound op over its kind's candidate modules (the only entries
    /// scoring reads). The pair walk may query these O(n²·modules)
    /// times for only O(n·modules) distinct answers.
    start0: Vec<Option<u32>>,
    /// [`Kernel::avoided_area`] per unbound operation.
    avoided: Vec<u32>,
    /// Column count of `fits` and `shared`: the instance capacity,
    /// doubled when an instance id reaches it.
    cap: usize,
    /// [`Kernel::earliest_instance_fit`] per (op, instance), flattened
    /// as `op.index() * cap + instance.index()`; current for every
    /// unbound op and every listed instance of its candidate modules.
    fits: Vec<Option<u32>>,
    /// Instances whose `fits` column the last `fill_tables` filled.
    fitted: usize,
    /// Connections each op shares with each instance's ops (operand
    /// producers plus result consumers, counted as
    /// [`Kernel::shared_connections`] does), laid out as `fits`.
    shared: Vec<u32>,
    /// Each unbound op's best single decision under [`Decision`]'s order,
    /// rescored only when its row asks: the first block keeps one
    /// decision, and the best single is the best of these.
    bests: Vec<Option<Decision>>,
}

// `bests` holds one decision per op, which serves only a first block
// of one decision.
const _: () = assert!(FIRST_BLOCK == 1);

/// What the kept tables remember about one op between two fills.
#[derive(Debug, Clone, Copy)]
struct OpRow {
    /// Its [`Kernel::window`] at the last fill (unbound ops only).
    window: (u32, u32),
    /// `[lo, hi)` spanning the window `[s, s + delay)` of every `Some`
    /// `start0` entry and fit it has; [`EMPTY_HULL`] when none is.
    hull: (u32, u32),
    /// Its fits: the listed instances of its allowed modules.
    fits: u32,
    /// Whether an entry, fit or shared count of it changed since its
    /// best single decision was scored.
    rescore: bool,
}

/// The hull of no window: it overlaps nothing.
const EMPTY_HULL: (u32, u32) = (u32::MAX, 0);

/// `hull` widened to span `[s, s + delay)` when `answer` is `Some(s)`.
fn cover(hull: (u32, u32), answer: Option<u32>, delay: u32) -> (u32, u32) {
    answer.map_or(hull, |s| (hull.0.min(s), hull.1.max(s + delay)))
}

impl<'a> Kernel<'a> {
    fn new(
        engine: &'a Engine,
        compiled: &'a CompiledGraph,
        constraints: &'a SynthesisConstraints,
        options: &'a SynthesisOptions,
    ) -> Kernel<'a> {
        let graph = compiled.graph();
        let n = graph.len();
        let library = engine.library();
        Kernel {
            graph,
            library,
            topo_rank: compiled.rank(),
            kind_modules: engine.kind_modules(),
            constraints,
            options,
            ic_weight: if options.interconnect_scoring {
                INTERCONNECT_WEIGHT
            } else {
                0
            },
            placer: PlacementCache::new(graph, &constraints.budget, constraints.latency),
            ledger: PowerLedger::under(constraints.latency, &constraints.budget),
            // Bootstrap's seed: the compiled min-area modules.
            timing: TimingMap::from_modules(graph, library, compiled.seed_modules()),
            est_modules: compiled.seed_modules().to_vec(),
            binding: Binding::new(n),
            locked: LockedStarts::none(n),
            unbound_vec: graph.node_ids().collect(),
            // Replaced by bootstrap's feasible schedule, before anything
            // reads it.
            provisional: Schedule::new(Vec::new()),
            dirty: false,
            palap: None,
            stats: SynthesisStats::default(),
            tally: Tally::default(),
            busy: Vec::new(),
            by_module: vec![Vec::new(); library.len()],
            listed: 0,
            committed: Vec::new(),
            stale: true,
            rows: vec![
                OpRow {
                    window: (0, 0),
                    hull: EMPTY_HULL,
                    fits: 0,
                    rescore: true,
                };
                n
            ],
            start0: vec![None; n * library.len()],
            avoided: vec![0; n],
            cap: 0,
            fits: Vec::new(),
            fitted: 0,
            shared: Vec::new(),
            bests: vec![None; n],
        }
    }

    /// Runs the loop and assembles the validated design. Returns it with
    /// the interval of every bound comparison the run decided and the
    /// run's effort, on every exit path, errors included.
    fn synthesize(
        mut self,
        hook: Option<&mut dyn FnMut(Progress) -> ControlFlow<()>>,
    ) -> (
        Result<SynthesizedDesign, SynthesisError>,
        PowerInterval,
        Tally,
    ) {
        let _synth_span = pchls_obs::span!("kernel.synthesize", "ops" => self.graph.len());
        let run = self.run(hook);
        let mut seen = self.placer.interval();
        seen.merge(self.ledger.interval());
        self.tally.orders = self.placer.orders_computed();
        self.tally.placements = self.placer.placements();
        self.tally.ops_placed = self.placer.searched();
        let result = run.and_then(|()| {
            self.binding.prune_empty();
            let mut design = SynthesizedDesign::assemble(
                self.provisional,
                self.timing,
                self.binding,
                self.library,
                self.constraints.clone(),
            );
            design.stats = self.stats;
            design.validate_recording(self.graph, self.library, &mut seen)?;
            Ok(design)
        });
        (result, seen, self.tally)
    }

    /// The greedy loop: bootstrap, then one committed decision (or a
    /// backtrack) per iteration until every operation is bound and
    /// locked at its final start in `provisional`.
    fn run(
        &mut self,
        mut hook: Option<&mut dyn FnMut(Progress) -> ControlFlow<()>>,
    ) -> Result<(), SynthesisError> {
        {
            let _span = pchls_obs::span!("kernel.bootstrap");
            self.bootstrap()?;
        }
        // The pair walk's buffers belong to the loop, not the kernel, so
        // a ranking reads the kernel while it fills them.
        let mut walk = PairWalk::default();
        let n = self.graph.len();
        while !self.unbound_vec.is_empty() {
            // Progress/cancel hook: one event per greedy iteration. `None`
            // (every batch/sweep path) costs nothing.
            if let Some(h) = hook.as_deref_mut() {
                let snapshot = Progress {
                    bound_ops: n - self.unbound_vec.len(),
                    total_ops: n,
                    backtracks: self.stats.backtracks,
                    rejected_candidates: self.stats.rejected_candidates,
                };
                if h(snapshot).is_break() {
                    return Err(SynthesisError::Cancelled);
                }
            }
            if self.dirty {
                self.refit()
                    .map_err(|cause| SynthesisError::Infeasible { cause })?;
            }
            // The soft deadlines must track every lock, so the reversed
            // heuristic is recomputed each iteration. It can fail where
            // the forward one succeeded; `candidate_start` then falls
            // back to zero mobility (late = early, the provisional
            // schedule itself), which is always safe.
            self.palap = {
                let _span = pchls_obs::span!("fds.palap");
                self.check_held();
                self.placer
                    .palap_locked(&self.timing, &self.locked, &self.ledger)
                    .ok()
            };
            self.gather();
            // Try candidates best-first; a candidate commits only if the
            // remaining operations still admit a power-feasible schedule
            // (the paper's feasibility check). Rejected candidates are
            // undone and skipped; attempts are capped so a pathological
            // iteration stays cheap.
            //
            // Most iterations commit their best candidate, so only the
            // best `FIRST_BLOCK` are ranked first; the full `MAX_ATTEMPTS`
            // are ranked only once every one of those is rejected, and
            // attempted from position `FIRST_BLOCK + 1` on. That runs
            // exactly the attempts one `MAX_ATTEMPTS`-deep ranking would:
            // `Decision`'s order is total and does not depend on which
            // decisions were scored, `undo` restores locks, timing and
            // the ledger exactly, and the full ranking reads this
            // iteration's pre-attempt `busy`/`by_module` rows and kept
            // tables. `by_module` must grow only in `gather`: a rejected
            // fresh attempt leaves an empty instance behind, and offering
            // merges onto it would rank decisions the block never saw.
            let mut committed = false;
            let mut attempted = Vec::new();
            for block in [Block::First, Block::Full] {
                let ranked = self.rank(block, &mut walk);
                debug_assert!(
                    ranked.starts_with(&attempted),
                    "the full ranking does not extend the first block"
                );
                committed = self.attempt(&ranked[attempted.len()..]);
                // A block shorter than its length already holds every
                // decision there is.
                if committed || ranked.len() < block.len() {
                    break;
                }
                attempted = ranked;
            }
            if !committed {
                self.backtrack()?;
            }
        }
        // All operations bound and locked: the locked schedule is final.
        if self.dirty {
            self.refit().map_err(SynthesisError::Schedule)?;
        }
        Ok(())
    }

    /// Recomputes `provisional`: the power-feasible early starts under
    /// the current locks. A commitment that locks operations exactly at
    /// their provisional starts with unchanged timing leaves
    /// `pasap_locked`'s greedy output unchanged (locked reservations are
    /// placed where the greedy itself put them, and placement order is
    /// timing-determined), so the loop refits only after a "dirty"
    /// commit, one that displaced an operation or changed its timing.
    fn refit(&mut self) -> Result<(), ScheduleError> {
        // The `fds.*` span names are historical: perfbench and `chrome_golden` read them.
        let _span = pchls_obs::span!("fds.refit");
        self.provisional = self.pasap()?;
        self.dirty = false;
        Ok(())
    }

    /// The locked pasap of the current state, through `placer`.
    fn pasap(&mut self) -> Result<Schedule, ScheduleError> {
        self.check_held();
        self.placer
            .pasap_locked(&self.timing, &self.locked, &self.ledger)
    }

    /// Debug builds: `ledger`, which every placement starts from, holds
    /// exactly the reservations a `reserve_locked` pass over the current
    /// locks makes (`PowerLedger`'s `==` ignores the records).
    fn check_held(&self) {
        if cfg!(debug_assertions) {
            let budget = &self.constraints.budget;
            let mut rebuilt = PowerLedger::under(self.constraints.latency, budget);
            pchls_sched::reserve_locked(
                &mut rebuilt,
                self.graph.len(),
                &self.timing,
                budget,
                |id| self.locked.get(id),
            )
            .expect("the locks fit the budget");
            assert_eq!(rebuilt, self.ledger, "the kernel's ledger left its locks");
        }
    }

    /// Brings the iteration's buffers up to date: each instance's busy
    /// intervals, and the open instances bucketed by module (ascending
    /// instance id per row), so a candidate (op, module) only visits the
    /// instances it could actually merge onto. Busy rows gain the last
    /// commit's windows and `by_module` every instance opened since the
    /// last gather, the empty one a rejected fresh attempt leaves
    /// included: bound ops never move and instances are never dropped
    /// before the end.
    fn gather(&mut self) {
        let count = self.binding.instances().len();
        self.busy.resize_with(count, Vec::new);
        for &(iid, start, finish) in &self.committed {
            self.busy[iid.index()].push((start, finish));
        }
        for iid in self.binding.instance_ids().skip(self.listed) {
            let module = self.binding.instance(iid).module();
            self.by_module[module.index()].push(iid);
        }
        self.listed = count;
    }

    /// Attempts `cands` best-first until one commits: apply, prove
    /// feasibility (fast-path for clean commits), keep or undo. Returns
    /// whether one committed.
    fn attempt(&mut self, cands: &[Decision]) -> bool {
        let mut span = pchls_obs::span!("kernel.commit");
        let mut attempts = 0u64;
        let mut committed = false;
        for cand in cands {
            attempts += 1;
            let saved = self.save(cand);
            self.apply(cand, &saved);
            // A candidate that locks its operation(s) exactly at their
            // provisional starts with unchanged timing cannot invalidate
            // the provisional schedule — it is feasible by construction
            // and the expensive re-schedule is skipped.
            let clean = is_clean(cand, &saved, &self.provisional);
            let feasible = clean || self.pasap().is_ok();
            if feasible {
                let partner = match cand.target {
                    Target::FreshPair { partner, .. } => Some(partner),
                    _ => None,
                };
                self.unbound_vec
                    .retain(|&v| v != cand.op && Some(v) != partner);
                self.stats.decisions += 1 + usize::from(partner.is_some());
                if clean {
                    self.stats.fast_commits += 1;
                } else {
                    self.dirty = true;
                }
                self.record_commit(cand, saved.applied_timing.delay);
                committed = true;
                break;
            }
            self.undo(cand, &saved);
            self.stats.rejected_candidates += 1;
        }
        span.arg("attempts", attempts);
        committed
    }

    /// Every candidate stranded the remaining operations. The paper's
    /// repair: backtrack (all failed decisions are already undone) and
    /// lock every unscheduled operation to the last valid pasap schedule,
    /// then continue with binding-only decisions. Locks land exactly at
    /// provisional starts, so the provisional schedule remains valid (not
    /// dirty).
    fn backtrack(&mut self) -> Result<(), SynthesisError> {
        if !self.options.backtracking {
            return Err(SynthesisError::Infeasible {
                cause: ScheduleError::Infeasible {
                    node: self.unbound_vec[0],
                    horizon: self.constraints.latency,
                    max_power: self.constraints.max_power(),
                },
            });
        }
        for &v in &self.unbound_vec {
            self.locked.lock(v, self.provisional.start(v));
        }
        // Rebuild the ledger from the full locked set (the newly locked
        // operations were not reserved incrementally).
        self.reserve_locked()?;
        self.stats.backtracks += 1;
        // The new locks change the newly locked ops' starts and reserve
        // power no commit recorded.
        self.stale = true;
        Ok(())
    }

    /// Records what a commit locked (see `committed`): its ops, each
    /// `delay` long on the committed module. Counts the connections its
    /// ops bring to their instance: for every op `u` (only unbound ones
    /// are read), one per operand of `u` found among a joining op's
    /// operands and one per consumer of `u` found among its consumers,
    /// as [`Kernel::shared_connections`] counts them.
    /// Each `u` sharing producer `p` is listed in `successors(p)` once
    /// per port `p` feeds, and each `u` sharing consumer `c` in
    /// `operands(c)` once per port it feeds, so visiting each distinct
    /// `p` and `c` once keeps the multiplicities. A changed count asks
    /// for the op's best single decision to be rescored.
    fn record_commit(&mut self, cand: &Decision, delay: u32) {
        let iid = self
            .binding
            .instance_of(cand.op)
            .expect("a committed op is bound");
        let partner = match cand.target {
            Target::FreshPair {
                partner,
                partner_start,
            } => Some((partner, partner_start)),
            _ => None,
        };
        self.reserve_columns(iid.index() + 1);
        let (graph, cap) = (self.graph, self.cap);
        for (w, start) in std::iter::once((cand.op, cand.start)).chain(partner) {
            self.committed.push((iid, start, start + delay));
            let operands = graph.operands(w);
            for (i, &p) in operands.iter().enumerate() {
                if !operands[..i].contains(&p) {
                    for &u in graph.successors(p) {
                        self.shared[u.index() * cap + iid.index()] += 1;
                        self.rows[u.index()].rescore = true;
                    }
                }
            }
            let consumers = graph.successors(w);
            for (j, &c) in consumers.iter().enumerate() {
                if !consumers[..j].contains(&c) {
                    for &u in graph.operands(c) {
                        self.shared[u.index() * cap + iid.index()] += 1;
                        self.rows[u.index()].rescore = true;
                    }
                }
            }
        }
    }

    /// Grows `fits` and `shared` to at least `instances` columns,
    /// doubling, so a run re-lays them out O(log instances) times.
    fn reserve_columns(&mut self, instances: usize) {
        if instances <= self.cap {
            return;
        }
        let cap = instances.max(2 * self.cap).max(8);
        let n = self.graph.len();
        self.fits = widen(&self.fits, n, self.cap, cap);
        self.shared = widen(&self.shared, n, self.cap, cap);
        self.cap = cap;
    }

    /// Rebuilds `ledger` in place as the per-cycle power reserved by the
    /// locked operations; its record of comparisons survives.
    fn reserve_locked(&mut self) -> Result<(), SynthesisError> {
        self.ledger.clear();
        let locked = &self.locked;
        pchls_sched::reserve_locked(
            &mut self.ledger,
            self.graph.len(),
            &self.timing,
            &self.constraints.budget,
            |id| locked.get(id),
        )
        .map_err(SynthesisError::Schedule)
    }
}

/// `table`'s `rows` rows of `from` columns, widened to `to` columns; the
/// new columns hold the default.
fn widen<T: Copy + Default>(table: &[T], rows: usize, from: usize, to: usize) -> Vec<T> {
    let mut wide = vec![T::default(); rows * to];
    if from > 0 {
        for (row, old) in wide.chunks_exact_mut(to).zip(table.chunks_exact(from)) {
            row[..from].copy_from_slice(old);
        }
    }
    wide
}

/// Whether a just-applied decision is guaranteed not to invalidate the
/// provisional schedule: every operation it locked sits exactly at its
/// provisional start with its timing unchanged.
fn is_clean(cand: &Decision, saved: &Saved, provisional: &Schedule) -> bool {
    let unchanged = |op: NodeId, start: u32, before: OpTiming, after: OpTiming| {
        start == provisional.start(op) && before.delay == after.delay && before.power == after.power
    };
    let op_clean = unchanged(cand.op, cand.start, saved.op_timing, saved.applied_timing);
    match cand.target {
        Target::FreshPair {
            partner,
            partner_start,
        } => {
            op_clean
                && saved.partner_timing.is_some_and(|before| {
                    unchanged(partner, partner_start, before, saved.applied_timing)
                })
        }
        _ => op_clean,
    }
}

/// Candidate attempts per iteration: commits are tried best-first and a
/// pathological iteration must stay cheap.
const MAX_ATTEMPTS: usize = 64;

/// Decisions ranked first in every iteration; the full `MAX_ATTEMPTS`
/// are ranked only when all of them are rejected. Chosen from a
/// measurement of 1, 2, 4 and 8 (EXPERIMENTS.md, "Lazy ranking").
const FIRST_BLOCK: usize = 1;

/// One of an iteration's two rankings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// The best `FIRST_BLOCK` decisions, ranked every iteration.
    First,
    /// The best `MAX_ATTEMPTS`, ranked only after the first block was
    /// rejected whole.
    Full,
}

impl Block {
    /// Decisions the ranking keeps.
    fn len(self) -> usize {
        match self {
            Block::First => FIRST_BLOCK,
            Block::Full => MAX_ATTEMPTS,
        }
    }

    /// The `block` label of the ranking counter and span arg.
    fn name(self) -> &'static str {
        match self {
            Block::First => "first",
            Block::Full => "full",
        }
    }
}

/// Offers `d` to `top`, which keeps the best `k` decisions offered: the
/// max-heap's root is the worst one kept, and `d` replaces it when `d`
/// ranks strictly before it. Under [`Decision`]'s total order the kept
/// set is the best `k` of every decision offered, whatever the order of
/// the offers.
fn offer(top: &mut BinaryHeap<Decision>, k: usize, d: Decision) {
    if top.len() < k {
        top.push(d);
    } else if let Some(mut worst) = top.peek_mut() {
        if d < *worst {
            *worst = d;
        }
    }
}

/// The worst decision `top` keeps once it holds `k`: an offer must rank
/// strictly before it to be kept. `None` while there is still room.
fn bar(top: &BinaryHeap<Decision>, k: usize) -> Option<&Decision> {
    top.peek().filter(|_| top.len() == k)
}

impl<'a> Kernel<'a> {
    /// Ranks the iteration's best `block.len()` decisions and returns
    /// them best-first. The first
    /// block brings the kept tables up to date ([`Kernel::fill_tables`])
    /// and offers each unbound op's kept best single decision
    /// ([`Kernel::offer_bests`]); the full ranking reuses the tables and
    /// the pair walk's buckets, and offers every single decision.
    ///
    /// Pair merges are not enumerated exhaustively:
    /// [`Kernel::offer_pairs`] walks them best-first by an upper bound on
    /// their score and skips every pair whose bound falls strictly below
    /// the worst decision a full ranking keeps — such a pair can never be
    /// kept. The smaller the block, the higher that bar.
    ///
    /// Deterministic order: [`Decision`]'s, whose structural [`Key`]
    /// tie-break makes it a *total* order that does not depend on which
    /// decisions were scored or in what order. The kept set is therefore
    /// exactly the full ranking of every feasible decision truncated to
    /// the block's length (checked against a brute-force enumeration in
    /// test builds), and the full ranking's first `FIRST_BLOCK` entries
    /// are the first block. The `kernel.score` span's `candidates` arg
    /// counts the decisions offered: per-op bests plus pairs on the
    /// first block, every single plus pairs on the full ranking.
    fn rank(&mut self, block: Block, walk: &mut PairWalk) -> Vec<Decision> {
        let mut top = BinaryHeap::with_capacity(block.len());
        {
            let mut score_span = pchls_obs::span!("kernel.score");
            score_span.arg("block", block.name());
            let mut offered = 0usize;
            match block {
                Block::First => {
                    self.fill_tables();
                    self.tally.first_rankings += 1;
                    offered = self.offer_bests(&mut top);
                    #[cfg(debug_assertions)]
                    self.check_tables();
                }
                Block::Full => {
                    self.tally.full_rankings += 1;
                    for &u in &self.unbound_vec {
                        self.single_decisions(u, &mut |d| {
                            offered += 1;
                            offer(&mut top, MAX_ATTEMPTS, d);
                        });
                    }
                }
            }
            let walked = self.offer_pairs(block, walk, &mut top);
            self.tally.probed += walked.probed;
            self.tally.pruned += walked.pruned;
            self.tally.visited += walked.visited;
            score_span.arg("candidates", offered + walked.offered);
            score_span.arg("pairs_probed", walked.probed);
            score_span.arg("pairs_pruned", walked.pruned);
        }
        let _span = pchls_obs::span!("kernel.topk");
        let ranked = top.into_sorted_vec();
        #[cfg(test)]
        tests::check_ranking(self, block.len(), &ranked);
        ranked
    }

    /// Offers each unbound op's best single decision to the first block,
    /// rescoring first the ops whose row asks for it, and returns how
    /// many it offered. The block keeps one decision, and the best of
    /// all single decisions is the best of the per-op bests.
    fn offer_bests(&mut self, top: &mut BinaryHeap<Decision>) -> usize {
        let mut offered = 0;
        for i in 0..self.unbound_vec.len() {
            let u = self.unbound_vec[i];
            if std::mem::take(&mut self.rows[u.index()].rescore) {
                self.bests[u.index()] = self.best_single(u);
            }
            if let Some(d) = self.bests[u.index()] {
                offered += 1;
                offer(top, FIRST_BLOCK, d);
            }
        }
        offered
    }

    /// The best of `u`'s single decisions.
    fn best_single(&self, u: NodeId) -> Option<Decision> {
        let mut best: Option<Decision> = None;
        self.single_decisions(u, &mut |d| {
            if best.is_none_or(|b| d < b) {
                best = Some(d);
            }
        });
        best
    }

    /// Brings the kept tables up to date for the unbound operations:
    /// `start0` and `avoided` over each op's kind's candidate modules,
    /// and `fits` over the listed instances of its allowed modules. Every
    /// entry depends only on state fixed for the whole iteration.
    ///
    /// Each op's [`Kernel::window`] is computed and compared with the one
    /// kept from the last fill. When the window is the same, the op is
    /// unlocked and the hull of its cached answers overlaps no window
    /// `committed` since, every entry and fit it has is kept without a
    /// visit: only its fits on instances listed since are computed.
    /// Every other op is re-derived entry by entry: an entry is kept, not
    /// recomputed, when the op's window is unchanged and its answer is
    /// `None` or a start whose window `[s, s + delay)` overlaps no
    /// committed window (DESIGN.md §6, "Kept tables"). Locked ops'
    /// `start0` entries, fits on instances listed since, and everything
    /// after a backtrack are recomputed. An op whose entry or fit changed
    /// value (a new `Some` fit included) has its best single decision
    /// rescored.
    fn fill_tables(&mut self) {
        let lib_len = self.library.len();
        let (stale, fitted, listed) = (self.stale, self.fitted, self.listed);
        self.reserve_columns(listed);
        let cap = self.cap;
        let fresh: Vec<(InstanceId, ModuleId)> = self
            .binding
            .instance_ids()
            .take(listed)
            .skip(fitted)
            .map(|iid| (iid, self.binding.instance(iid).module()))
            .collect();
        // The tables are filled out of place, so the fill can read the
        // rest of the kernel while it writes them.
        let mut start0 = std::mem::take(&mut self.start0);
        let mut avoided = std::mem::take(&mut self.avoided);
        let mut rows = std::mem::take(&mut self.rows);
        let mut fits = std::mem::take(&mut self.fits);
        let mut tally = std::mem::take(&mut self.tally);
        for &u in &self.unbound_vec {
            let row = &mut rows[u.index()];
            let locked = self.locked.is_locked(u);
            let starts = &mut start0[u.index() * lib_len..][..lib_len];
            let row_fits = &mut fits[u.index() * cap..][..cap];
            let window = self.window(u);
            let same = !stale && row.window == window;
            row.window = window;
            if same && !locked && !self.overlaps_committed(row.hull) {
                tally.rows_skipped += 1;
                tally.entries_kept += self.kind_list(u).len() as u64;
                tally.fits_kept += u64::from(row.fits);
                for &(iid, m) in &fresh {
                    if !self.modules_for(u).contains(&m) {
                        continue;
                    }
                    let fit = self.earliest_instance_fit(u, m, iid, window, starts[m.index()]);
                    row_fits[iid.index()] = fit;
                    tally.fits_recomputed += 1;
                    row.fits += 1;
                    row.hull = cover(row.hull, fit, self.library.module(m).latency());
                    row.rescore |= fit.is_some();
                }
                continue;
            }
            tally.rows_visited += 1;
            let mut changed = false;
            let mut hull = EMPTY_HULL;
            let kinds = self.kind_list(u);
            for &m in kinds {
                let entry = &mut starts[m.index()];
                if same && !locked && self.untouched(*entry, m) {
                    tally.entries_kept += 1;
                } else {
                    let answer = self.start_within(u, m, 0, window);
                    changed |= answer != std::mem::replace(entry, answer);
                    tally.entries_recomputed += 1;
                }
                hull = cover(hull, *entry, self.library.module(m).latency());
            }
            // Area of the cheapest library module that could *feasibly*
            // execute `u` in the current state — the unit a successful
            // merge avoids opening. Feasibility matters: when the latency
            // bound rules the serial multiplier out for an operation,
            // merging it onto a parallel multiplier avoids a 339-area
            // unit, not a 103-area one.
            avoided[u.index()] = kinds
                .iter()
                .filter(|&&m| starts[m.index()].is_some())
                .map(|&m| self.library.module(m).area())
                .min()
                .or_else(|| {
                    // Nothing currently fits (rare, mid-backtrack): fall
                    // back to the global cheapest so scoring stays total.
                    kinds.iter().map(|&m| self.library.module(m).area()).min()
                })
                .expect("library coverage checked at bootstrap");
            let mut count = 0;
            for &m in self.modules_for(u) {
                for &iid in &self.by_module[m.index()] {
                    let fit = &mut row_fits[iid.index()];
                    if same && iid.index() < fitted && self.untouched(*fit, m) {
                        tally.fits_kept += 1;
                    } else {
                        let answer =
                            self.earliest_instance_fit(u, m, iid, window, starts[m.index()]);
                        changed |= answer != std::mem::replace(fit, answer);
                        tally.fits_recomputed += 1;
                    }
                    count += 1;
                    hull = cover(hull, *fit, self.library.module(m).latency());
                }
            }
            row.hull = hull;
            row.fits = count;
            row.rescore |= changed;
        }
        self.start0 = start0;
        self.avoided = avoided;
        self.rows = rows;
        self.fits = fits;
        self.tally = tally;
        self.fitted = listed;
        self.stale = false;
        self.committed.clear();
    }

    /// Whether a window committed since the last fill overlaps
    /// `[lo, hi)`.
    fn overlaps_committed(&self, (lo, hi): (u32, u32)) -> bool {
        self.committed.iter().any(|&(_, a, b)| a < hi && lo < b)
    }

    /// Whether a kept answer on module `m` still holds: `None`, or a
    /// start whose window overlaps no window committed since it was
    /// computed.
    fn untouched(&self, answer: Option<u32>, m: ModuleId) -> bool {
        answer.is_none_or(|s| !self.overlaps_committed((s, s + self.library.module(m).latency())))
    }

    /// Asserts every kept table entry and best single decision equal to
    /// a full recompute, without recording the recompute's ledger
    /// comparisons: they would narrow the run's interval in debug builds
    /// only. Also asserts that no locked successor's lock binds a
    /// window's deadline, which [`Kernel::window`] leaves out.
    #[cfg(debug_assertions)]
    fn check_tables(&self) {
        self.ledger.unrecorded(|| {
            for &u in &self.unbound_vec {
                let window = self.window(u);
                let lock = self
                    .graph
                    .successors(u)
                    .iter()
                    .filter_map(|&s| self.locked.get(s))
                    .min();
                assert!(
                    lock.is_none_or(|l| l >= window.1),
                    "a locked successor of {u} binds its deadline"
                );
                for &m in self.kind_list(u) {
                    assert_eq!(
                        self.candidate_start0(u, m),
                        self.start_within(u, m, 0, window),
                        "kept start0 of {u} on module {} is stale",
                        m.index()
                    );
                }
                for &m in self.modules_for(u) {
                    for &iid in &self.by_module[m.index()] {
                        let f = u.index() * self.cap + iid.index();
                        assert_eq!(
                            self.fits[f],
                            self.earliest_instance_fit(
                                u,
                                m,
                                iid,
                                window,
                                self.candidate_start0(u, m)
                            ),
                            "kept fit of {u} on instance {} is stale",
                            iid.index()
                        );
                        let recount: usize = self
                            .binding
                            .instance(iid)
                            .ops()
                            .iter()
                            .map(|&v| self.shared_connections(u, v))
                            .sum();
                        assert_eq!(
                            self.shared[f] as usize,
                            recount,
                            "shared connections of {u} with instance {} are stale",
                            iid.index()
                        );
                    }
                }
                assert_eq!(
                    self.bests[u.index()],
                    self.best_single(u),
                    "kept best single decision of {u} is stale"
                );
            }
        });
    }

    /// The candidate modules of `op`'s kind.
    fn kind_list(&self, op: NodeId) -> &'a [ModuleId] {
        &self.kind_modules[self.graph.node(op).kind().index()]
    }

    /// Tabulated avoided area of `op` (unbound ops only).
    fn avoided_area(&self, op: NodeId) -> u32 {
        self.avoided[op.index()]
    }

    /// Tabulated `candidate_start(op, m, 0)` — the form every scoring
    /// path asks for repeatedly. Valid for unbound `op` and any `m`
    /// implementing its kind.
    fn candidate_start0(&self, op: NodeId, m: ModuleId) -> Option<u32> {
        self.start0[op.index() * self.library.len() + m.index()]
    }

    /// The earliest feasible start for `op` executed on module `m`, no
    /// earlier than `not_before`. Respects the power ledger, the
    /// palap-estimated deadline (softened so the provisional slot always
    /// qualifies) and the latency bound, and — for locked ops — the fixed
    /// slot and timing.
    fn candidate_start(&self, op: NodeId, m: ModuleId, not_before: u32) -> Option<u32> {
        self.start_within(op, m, not_before, self.window(op))
    }

    /// `candidate_start` given `op`'s [`Kernel::window`].
    fn start_within(
        &self,
        op: NodeId,
        m: ModuleId,
        not_before: u32,
        (ready, deadline): (u32, u32),
    ) -> Option<u32> {
        let spec = self.library.module(m);
        if let Some(s) = self.locked.get(op) {
            let cur = self.timing.of(op);
            if spec.latency() != cur.delay || spec.power() != cur.power {
                return None; // reservation coherence
            }
            return (s >= not_before).then_some(s);
        }
        // Deadline-bounded offset search on the ledger (log-time skips,
        // identical result to the old cycle-by-cycle scan); it rejects a
        // module over the peak bound before searching.
        self.ledger.earliest_fit_by(
            ready.max(not_before),
            spec.latency(),
            spec.power(),
            deadline,
        )
    }

    /// The two numbers `candidate_start` derives for an unlocked `op`
    /// whatever the module: its ready time (the latest provisional finish
    /// of its operands) and its deadline (the soft palap deadline, never
    /// tighter than the provisional slot, capped by the latency
    /// constraint). A locked successor's lock never binds the deadline:
    /// `provisional` is a valid pasap and `palap` a valid palap (or
    /// `None`) under the current locks, so both finish `op` by every
    /// locked successor's lock ([`Kernel::check_tables`] asserts it).
    fn window(&self, op: NodeId) -> (u32, u32) {
        let ready = self
            .graph
            .operands(op)
            .iter()
            .map(|&p| self.provisional.start(p) + self.timing.delay(p))
            .max()
            .unwrap_or(0);
        // Soft palap deadline: never tighter than the provisional slot.
        let late = self.palap.as_ref().unwrap_or(&self.provisional);
        let soft_deadline = (late.start(op) + self.timing.delay(op))
            .max(self.provisional.start(op) + self.timing.delay(op));
        (ready, soft_deadline.min(self.constraints.latency))
    }

    /// Connections `u` shares with `v`: each operand of `u` found among
    /// `v`'s operands, and each consumer of `u` found among `v`'s
    /// consumers (with multiplicity on `u`'s side).
    fn shared_connections(&self, u: NodeId, v: NodeId) -> usize {
        let operands = self.graph.operands(v);
        let consumers = self.graph.successors(v);
        self.graph
            .operands(u)
            .iter()
            .filter(|p| operands.contains(p))
            .count()
            + self
                .graph
                .successors(u)
                .iter()
                .filter(|c| consumers.contains(c))
                .count()
    }

    /// Interconnect bonus of the pair `(u, v)`: its shared connections,
    /// weighted by `ic_weight`.
    fn interconnect(&self, u: NodeId, v: NodeId) -> i64 {
        self.shared_connections(u, v) as i64 * self.ic_weight
    }

    /// Modules allowed for `op` under the ablation switches (borrowed —
    /// no per-query allocation).
    fn modules_for(&self, op: NodeId) -> &[ModuleId] {
        if self.options.module_selection {
            self.kind_list(op)
        } else {
            std::slice::from_ref(&self.est_modules[op.index()])
        }
    }

    /// Emits the decisions binding one unbound operation on its own:
    /// merges onto each compatible existing instance, plus the
    /// dedicated-instance fallback.
    fn single_decisions(&self, u: NodeId, emit: &mut impl FnMut(Decision)) {
        for (pos, &m) in (0u32..).zip(self.modules_for(u)) {
            // (1) Merge onto an existing instance: earliest start at
            // which the instance is free and power fits.
            for (slot, &iid) in (0u32..).zip(&self.by_module[m.index()]) {
                if let Some(d) = self.existing_decision(u, m, iid, (0, u.index() as u32, pos, slot))
                {
                    emit(d);
                }
            }
            // (3) Dedicated instance (fallback).
            if let Some(d) = self.fresh_decision(u, m, (0, u.index() as u32, pos, u32::MAX)) {
                emit(d);
            }
        }
    }

    /// The decision merging unbound `u` onto existing instance `iid` of
    /// module `m`, if it fits: the kept fit, scored with the kept
    /// shared-connection count.
    fn existing_decision(
        &self,
        u: NodeId,
        m: ModuleId,
        iid: InstanceId,
        key: Key,
    ) -> Option<Decision> {
        let f = u.index() * self.cap + iid.index();
        let s = self.fits[f]?;
        // The one-unit bonus (10 tenths) breaks ties against pair
        // merges: growing an existing clique saves one unit per *one*
        // operation consumed, a pair saves one unit per two — without
        // the bonus the greedy fragments large op classes into many
        // two-op instances. It is also paid for an instance that saves
        // no unit at all: `undo` leaves a rejected fresh attempt's
        // instance empty and `gather` still lists it, so a merge onto it
        // scores `avoided + 1` units as if it spared a unit (ROADMAP
        // item 6).
        let ic = i64::from(self.shared[f]) * self.ic_weight;
        Some(Decision {
            score: Reverse(10 * i64::from(self.avoided_area(u)) + ic + 10),
            start: s,
            op: u,
            key,
            module: m,
            target: Target::Existing(iid),
        })
    }

    /// The decision opening a dedicated instance of module `m` for `u`,
    /// if a power-feasible start exists.
    fn fresh_decision(&self, u: NodeId, m: ModuleId, key: Key) -> Option<Decision> {
        let s = self.candidate_start0(u, m)?;
        Some(Decision {
            score: Reverse(-10 * i64::from(self.library.module(m).area())),
            start: s,
            op: u,
            key,
            module: m,
            target: Target::Fresh,
        })
    }

    /// Offers the pair merges that can still make `top`, best bound
    /// first. The first block sorts the unbound ops into buckets and
    /// lists their entries ([`Kernel::bucket_pairs`]); the full ranking
    /// walks the same ones, since nothing they read changes in between.
    ///
    /// A pair merge of `first` then `second` on module `m` scores
    /// `10·gain + interconnect`, where
    /// `gain = avoided(first) + avoided(second) − area(m)` must be
    /// positive. Its bound:
    ///
    /// * `gain` is exact per bucket pair (buckets share an avoided area);
    /// * `interconnect` counts `first`'s operands and successors found in
    ///   `second`'s, so it is at most `ic_weight` times the larger of the
    ///   two buckets' degrees (`first` may come from either).
    ///
    /// Entries are walked by bound, highest first, until a bound falls
    /// strictly below the worst decision a full `top` keeps; within an
    /// entry, each pair's exact score `10·gain + interconnect` is checked
    /// the same way before the ledger probe.
    ///
    /// A pair is cut on its whole rank, which is known before the probe:
    /// its score is at most the exact score, its start is exactly the
    /// tabulated `start0(first, m)`, its op is `first` and its [`Key`] is
    /// structural. It is skipped when that rank orders after the worst
    /// kept one, so it could never be kept; a `None` start makes no
    /// decision and ranks as `u32::MAX`, after every kept start of its
    /// score. The per-pair bound is the exact score, so most probes
    /// would otherwise be ties on it.
    fn offer_pairs(
        &self,
        block: Block,
        walk: &mut PairWalk,
        top: &mut BinaryHeap<Decision>,
    ) -> Walked {
        if block == Block::First {
            self.bucket_pairs(walk);
        }
        let k = block.len();
        let mut out = Walked::default();
        for (i, e) in walk.entries.iter().enumerate() {
            if bar(top, k).is_some_and(|w| Reverse(e.bound) > w.score) {
                // Sorted by bound: no later entry can beat the bar either.
                out.pruned += walk.entries[i..].iter().map(|e| walk.pairs(e)).sum::<u64>();
                break;
            }
            let (a, b) = (&walk.buckets[e.lo].ops, &walk.buckets[e.hi].ops);
            for (x, &p) in a.iter().enumerate() {
                let partners = if e.lo == e.hi { &a[x + 1..] } else { &b[..] };
                for &q in partners {
                    out.visited += 1;
                    let (u, v) = if p < q { (p, q) } else { (q, p) };
                    let (first, second) = self.rank_order(u, v);
                    let Some(pos) = self.modules_for(first).iter().position(|&x| x == e.module)
                    else {
                        continue; // module selection off: `first` keeps its estimate
                    };
                    let ic = self.interconnect(first, second);
                    let key = (1, u.index() as u32, v.index() as u32, pos as u32);
                    let start = self.candidate_start0(first, e.module).unwrap_or(u32::MAX);
                    let rank = (Reverse(e.gain + ic), start, first, key);
                    if bar(top, k).is_some_and(|w| rank > (w.score, w.start, w.op, w.key)) {
                        out.pruned += 1;
                        continue;
                    }
                    out.probed += 1;
                    if let Some(d) = self.pair_decision(first, second, e.module, ic, key) {
                        out.offered += 1;
                        offer(top, k, d);
                    }
                }
            }
        }
        out
    }

    /// Sorts the unbound operations into `walk`'s buckets, in order of
    /// first appearance by ascending id, and lists every entry with a
    /// positive gain, highest bound first. Bucket `ops` vectors are
    /// reused across rankings.
    fn bucket_pairs(&self, walk: &mut PairWalk) {
        walk.live = 0;
        for &u in &self.unbound_vec {
            let kind = self.graph.node(u).kind();
            let avoided = self.avoided_area(u);
            let degree = self.graph.operands(u).len() + self.graph.successors(u).len();
            let b = match walk.buckets[..walk.live]
                .iter()
                .position(|b| b.kind == kind && b.avoided == avoided)
            {
                Some(b) => b,
                None => {
                    if walk.live == walk.buckets.len() {
                        walk.buckets.push(Bucket {
                            kind,
                            avoided,
                            degree: 0,
                            ops: Vec::new(),
                        });
                    }
                    let spare = &mut walk.buckets[walk.live];
                    (spare.kind, spare.avoided, spare.degree) = (kind, avoided, 0);
                    spare.ops.clear();
                    walk.live += 1;
                    walk.live - 1
                }
            };
            let bucket = &mut walk.buckets[b];
            bucket.degree = bucket.degree.max(degree);
            bucket.ops.push(u);
        }

        walk.entries.clear();
        let live = &walk.buckets[..walk.live];
        for (lo, a) in live.iter().enumerate() {
            for (hi, b) in live.iter().enumerate().skip(lo) {
                if lo == hi && a.ops.len() < 2 {
                    continue;
                }
                for &m in &self.kind_modules[a.kind.index()] {
                    let spec = self.library.module(m);
                    if !spec.implements(b.kind) {
                        continue;
                    }
                    let gain = i64::from(a.avoided) + i64::from(b.avoided) - i64::from(spec.area());
                    if gain <= 0 {
                        continue;
                    }
                    let ic_cap = self.ic_weight * a.degree.max(b.degree) as i64;
                    walk.entries.push(Entry {
                        lo,
                        hi,
                        module: m,
                        gain: 10 * gain,
                        bound: 10 * gain + ic_cap,
                    });
                }
            }
        }
        walk.entries.sort_by_key(|e| Reverse(e.bound));
    }

    /// The pair `{u, v}` in rank order: `first` runs before `second` on
    /// their shared instance. A path from one op to the other ranks its
    /// start lower, so a dependent pair keeps its dependence order.
    fn rank_order(&self, u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if self.topo_rank[v.index()] < self.topo_rank[u.index()] {
            (v, u)
        } else {
            (u, v)
        }
    }

    /// The decision opening one shared instance of module `m` for the
    /// rank-ordered pair `(first, second)`, if the merge is
    /// profitable and feasible. `ic` is the pair's interconnect term,
    /// `interconnect(first, second)`, which the caller has in hand.
    fn pair_decision(
        &self,
        first: NodeId,
        second: NodeId,
        m: ModuleId,
        ic: i64,
        key: Key,
    ) -> Option<Decision> {
        let spec = self.library.module(m);
        if !spec.implements(self.graph.node(second).kind()) {
            return None;
        }
        let gain = i64::from(self.avoided_area(first)) + i64::from(self.avoided_area(second))
            - i64::from(spec.area());
        if gain <= 0 {
            return None; // two dedicated cheapest units are no worse
        }
        let s1 = self.candidate_start0(first, m)?;
        let s2 = self.candidate_start(second, m, s1 + spec.latency())?;
        Some(Decision {
            score: Reverse(10 * gain + ic),
            start: s1,
            op: first,
            key,
            module: m,
            target: Target::FreshPair {
                partner: second,
                partner_start: s2,
            },
        })
    }

    /// Earliest start at which `u` can execute on instance `iid` of
    /// module `m`: power-feasible and not overlapping the instance's busy
    /// intervals. `window` is `u`'s [`Kernel::window`] and `start0` its
    /// `candidate_start(u, m, 0)`.
    fn earliest_instance_fit(
        &self,
        u: NodeId,
        m: ModuleId,
        iid: InstanceId,
        window: (u32, u32),
        start0: Option<u32>,
    ) -> Option<u32> {
        let delay = self.library.module(m).latency();
        let busy = &self.busy[iid.index()];
        let mut s = start0?;
        loop {
            // First busy interval overlapping [s, s+delay), if any.
            match busy
                .iter()
                .filter(|&&(bs, bf)| s < bf && bs < s + delay)
                .map(|&(_, bf)| bf)
                .max()
            {
                None => return Some(s),
                Some(resume) => {
                    // Skip past the collision and re-check power/deadline.
                    s = self.start_within(u, m, resume, window)?;
                }
            }
        }
    }
}

/// Unbound operations with one kind and one tabulated avoided area:
/// every pair drawn from two buckets has the same area gain on a given
/// module.
#[derive(Debug)]
struct Bucket {
    kind: OpKind,
    avoided: u32,
    /// Largest operand-plus-successor count among the members: no pair
    /// whose `first` is a member shares more connections than this.
    degree: usize,
    /// Members, ascending id.
    ops: Vec<NodeId>,
}

/// The pair merges of two buckets (`lo ≤ hi`) on one module, with an
/// upper bound on all their scores.
#[derive(Debug)]
struct Entry {
    lo: usize,
    hi: usize,
    module: ModuleId,
    /// Ten times the area the merge saves, exact for every pair of the
    /// entry.
    gain: i64,
    /// `gain` plus the interconnect cap.
    bound: i64,
}

/// Reusable buffers of [`Kernel::offer_pairs`], filled by
/// [`Kernel::bucket_pairs`].
#[derive(Debug, Default)]
struct PairWalk {
    /// The ranking's buckets, then spares whose `ops` vectors wait for
    /// reuse.
    buckets: Vec<Bucket>,
    /// Buckets in use.
    live: usize,
    entries: Vec<Entry>,
}

impl PairWalk {
    /// Number of unordered pairs an entry covers.
    fn pairs(&self, e: &Entry) -> u64 {
        let (a, b) = (
            self.buckets[e.lo].ops.len() as u64,
            self.buckets[e.hi].ops.len() as u64,
        );
        if e.lo == e.hi {
            a * a.saturating_sub(1) / 2
        } else {
            a * b
        }
    }
}

/// What one [`Kernel::offer_pairs`] pass did, counted in (pair, module)
/// slots of the entries.
#[derive(Debug, Default)]
struct Walked {
    /// Exact scores computed (each costs ledger probes).
    probed: u64,
    /// Skipped because their score bound fell strictly below the worst
    /// kept decision, or tied it and their rank key ranks after it (an
    /// entry cut whole counts all its slots).
    pruned: u64,
    /// Pairs checked one by one: probed, pruned one at a time, or
    /// skipped because `first` cannot take the entry's module.
    visited: u64,
    /// Feasible pair decisions offered to `top`.
    offered: usize,
}

/// State saved for undoing a decision: previous timing entries and
/// previous lock state. The ledger needs nothing saved: undo releases
/// exactly what `apply` reserved.
struct Saved {
    op_timing: OpTiming,
    /// Timing written by `apply` (the module spec's delay/power).
    applied_timing: OpTiming,
    /// Whether the op was already locked (then its power is already in
    /// the ledger and must be neither re-reserved nor released).
    op_was_locked: bool,
    /// The partner's timing, for a [`Target::FreshPair`].
    partner_timing: Option<OpTiming>,
    partner_was_locked: bool,
}

impl Kernel<'_> {
    fn save(&self, cand: &Decision) -> Saved {
        let spec = self.library.module(cand.module);
        let (partner_timing, partner_was_locked) = match cand.target {
            Target::FreshPair { partner, .. } => (
                Some(self.timing.of(partner)),
                self.locked.is_locked(partner),
            ),
            _ => (None, false),
        };
        Saved {
            op_timing: self.timing.of(cand.op),
            applied_timing: OpTiming {
                delay: spec.latency(),
                power: spec.power(),
            },
            op_was_locked: self.locked.is_locked(cand.op),
            partner_timing,
            partner_was_locked,
        }
    }

    fn apply(&mut self, cand: &Decision, saved: &Saved) {
        let t = saved.applied_timing;
        self.timing.set(cand.op, t);
        self.locked.lock(cand.op, cand.start);
        if !saved.op_was_locked {
            self.ledger.reserve(cand.start, t.delay, t.power);
        }
        match cand.target {
            Target::Existing(i) => self.binding.bind(cand.op, i),
            Target::Fresh => {
                let i = self.binding.new_instance(cand.module);
                self.binding.bind(cand.op, i);
            }
            Target::FreshPair {
                partner,
                partner_start,
            } => {
                let i = self.binding.new_instance(cand.module);
                self.binding.bind(cand.op, i);
                self.timing.set(partner, t);
                self.locked.lock(partner, partner_start);
                if !saved.partner_was_locked {
                    self.ledger.reserve(partner_start, t.delay, t.power);
                }
                self.binding.bind(partner, i);
            }
        }
    }

    fn undo(&mut self, cand: &Decision, saved: &Saved) {
        self.binding.unbind(cand.op);
        if !saved.op_was_locked {
            self.locked.unlock(cand.op);
        }
        self.timing.set(cand.op, saved.op_timing);
        let t = saved.applied_timing;
        if !saved.op_was_locked {
            self.ledger.release(cand.start, t.delay, t.power);
        }
        if let (
            Target::FreshPair {
                partner,
                partner_start,
            },
            Some(before),
        ) = (cand.target, saved.partner_timing)
        {
            self.binding.unbind(partner);
            if !saved.partner_was_locked {
                self.locked.unlock(partner);
                self.ledger.release(partner_start, t.delay, t.power);
            }
            self.timing.set(partner, before);
        }
        // A fresh instance allocated for this decision stays empty and is
        // pruned at the end; ids of other instances are unaffected.
    }

    /// Chooses the per-operation module estimates: minimum area (also
    /// the low-power choice in realistic libraries — precomputed once per
    /// graph as [`CompiledGraph`]'s seed, which `Kernel::new` starts
    /// from), then upgrades operations to their fastest module along
    /// infeasible critical paths until a power-feasible schedule exists,
    /// which becomes `provisional`: nothing is locked yet, so it is
    /// what a refit would compute. The pasap runs are the kernel's own
    /// ([`Kernel::pasap`]) and the upgrade filter compares module powers
    /// against the still-empty `ledger`, so both record their
    /// comparisons.
    fn bootstrap(&mut self) -> Result<(), SynthesisError> {
        let (graph, library) = (self.graph, self.library);
        loop {
            let err = match self.pasap() {
                Ok(schedule) => {
                    self.provisional = schedule;
                    return Ok(());
                }
                Err(e) => e,
            };
            // Power alone can never be fixed by a faster (more
            // power-hungry) module.
            if matches!(err, ScheduleError::OpExceedsBudget { .. }) {
                return Err(SynthesisError::Infeasible { cause: err });
            }
            let failing = match err {
                ScheduleError::Infeasible { node, .. } => Some(node),
                _ => None,
            };
            // Upgradeable ops: a strictly faster module exists whose
            // power still fits the budget.
            let upgrade_of = |v: NodeId| -> Option<ModuleId> {
                let cur = self.timing.delay(v);
                library
                    .candidates(graph.node(v).kind())
                    .filter(|&m| {
                        library.module(m).latency() < cur
                            && self.ledger.admits(library.module(m).power())
                    })
                    .min_by_key(|&m| (library.module(m).latency(), library.module(m).area()))
            };
            let mut upgradeable: Vec<NodeId> = graph
                .node_ids()
                .filter(|&v| upgrade_of(v).is_some())
                .collect();
            if let Some(f) = failing {
                // Prefer the failing op itself or one of its ancestors —
                // the delay on the path into `f` is what broke the
                // horizon. One walk over operands finds them.
                let mut ancestors = NodeSet::empty(graph.len());
                ancestors.insert(f);
                let mut stack = vec![f];
                while let Some(v) = stack.pop() {
                    for &p in graph.operands(v) {
                        if !ancestors.contains(p) {
                            ancestors.insert(p);
                            stack.push(p);
                        }
                    }
                }
                let on_path: Vec<NodeId> = upgradeable
                    .iter()
                    .copied()
                    .filter(|&v| ancestors.contains(v))
                    .collect();
                if !on_path.is_empty() {
                    upgradeable = on_path;
                }
            }
            // Upgrade the slowest candidate first (largest delay win).
            let Some(&pick) = upgradeable.iter().max_by_key(|&&v| {
                self.timing.delay(v) - library.module(upgrade_of(v).expect("filtered")).latency()
            }) else {
                return Err(SynthesisError::Infeasible { cause: err });
            };
            let m = upgrade_of(pick).expect("pick is upgradeable");
            self.est_modules[pick.index()] = m;
            self.timing.set(
                pick,
                OpTiming {
                    delay: library.module(m).latency(),
                    power: library.module(m).power(),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::{
        benchmarks, graph_fingerprint, parse_cdfg, random_dag, write_cdfg, CdfgBuilder, Edge,
        RandomDagConfig,
    };
    use pchls_fulib::{paper_library, ModuleSpec};
    use pchls_sched::PowerBudget;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// This test thread checks every k-th ranking against
        /// [`brute_force_ranking`]; k = 1 checks them all.
        static BRUTE_FORCE_EVERY: Cell<u64> = const { Cell::new(1) };
        /// The rankings this test thread has made.
        static RANKINGS: Cell<u64> = const { Cell::new(0) };
        /// The largest shared-connection count a checked ranking of this
        /// thread scored, on a pair or a merge onto an instance.
        static MAX_SHARED: Cell<u32> = const { Cell::new(0) };
    }

    /// `Kernel::rank`'s test-build check: `ranked` is the brute-force
    /// ranking truncated to `len`, on every k-th ranking of this thread.
    pub(super) fn check_ranking(kernel: &Kernel<'_>, len: usize, ranked: &[Decision]) {
        let made = RANKINGS.get();
        RANKINGS.set(made + 1);
        if made.is_multiple_of(BRUTE_FORCE_EVERY.get()) {
            assert_eq!(
                ranked,
                brute_force_ranking(kernel, len).as_slice(),
                "the pair walk's ranking diverged from the exhaustive one"
            );
        }
    }

    /// The reference ranking `Kernel::rank` is checked against in test
    /// builds: every single and every pair decision (each unordered pair,
    /// each of `first`'s modules), fully sorted, truncated to `len`. It
    /// also asserts, against its own closure of the graph, that no pair
    /// runs a descendant before its ancestor.
    fn brute_force_ranking(kernel: &Kernel<'_>, len: usize) -> Vec<Decision> {
        let unbound_vec = &kernel.unbound_vec;
        let reach = reachability(kernel.graph);
        let mut all = Vec::new();
        let mut max_shared = MAX_SHARED.get();
        for &u in unbound_vec {
            kernel.single_decisions(u, &mut |d| all.push(d));
            for &m in kernel.modules_for(u) {
                for &iid in &kernel.by_module[m.index()] {
                    max_shared =
                        max_shared.max(kernel.shared[u.index() * kernel.cap + iid.index()]);
                }
            }
        }
        for (i, &u) in unbound_vec.iter().enumerate() {
            for &v in &unbound_vec[i + 1..] {
                let (first, second) = kernel.rank_order(u, v);
                assert!(
                    !reach[second.index()][first.index()],
                    "the pair ({first}, {second}) runs {first} before its ancestor"
                );
                let ic = kernel.interconnect(first, second);
                for (pos, &m) in (0u32..).zip(kernel.modules_for(first)) {
                    let key = (1, u.index() as u32, v.index() as u32, pos);
                    all.extend(kernel.pair_decision(first, second, m, ic, key));
                }
                max_shared = max_shared.max(kernel.shared_connections(first, second) as u32);
            }
        }
        MAX_SHARED.set(max_shared);
        all.sort_unstable();
        all.truncate(len);
        all
    }

    /// `reach[u][v]`: a path of one or more edges runs from `u` to `v`,
    /// found by a search from every node, independent of the compiled
    /// rank the kernel orders pairs by.
    fn reachability(graph: &Cdfg) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; graph.len()]; graph.len()];
        for (u, row) in graph.node_ids().zip(&mut reach) {
            let mut stack = vec![u];
            while let Some(w) = stack.pop() {
                for &s in graph.successors(w) {
                    if !std::mem::replace(&mut row[s.index()], true) {
                        stack.push(s);
                    }
                }
            }
        }
        reach
    }

    /// Runs the kernel directly, returning its effort tally with the
    /// answer (the entry point publishes it to the global registry).
    fn synth_tally(
        library: ModuleLibrary,
        graph: &Cdfg,
        constraints: &SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> (Result<SynthesizedDesign, SynthesisError>, Tally) {
        let engine = Engine::new(library);
        let compiled = engine.compile(graph);
        let (result, _, tally) =
            Kernel::new(&engine, &compiled, constraints, options).synthesize(None);
        (result, tally)
    }

    /// `items` shuffled by a permutation drawn from `seed` (Fisher–Yates
    /// over a splitmix64 stream).
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..items.len()).rev() {
            items.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }

    /// `graph` with its node ids relabelled by a permutation drawn from
    /// `seed`: structurally the same graph, but an operand's id may now
    /// exceed its consumer's.
    fn relabelled(graph: &Cdfg, seed: u64) -> Cdfg {
        let n = graph.len();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, seed);
        let mut new_id = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            new_id[old] = new as u32;
        }
        let nodes = order
            .iter()
            .map(|&old| {
                let node = &graph.nodes()[old];
                (node.kind(), node.label().to_owned())
            })
            .collect();
        let edges = graph
            .edges()
            .iter()
            .map(|e| Edge {
                from: NodeId::new(new_id[e.from.index()]),
                to: NodeId::new(new_id[e.to.index()]),
                port: e.port,
            })
            .collect();
        Cdfg::from_parts(graph.name(), nodes, edges).expect("a relabelling keeps the graph valid")
    }

    /// `graph` plus one new input feeding `fan` multiplies. Each multiply
    /// also reads one of `graph`'s inputs, in turn, and feeds an output
    /// of its own, so a multiply shares at least one connection with
    /// each other one: a merge onto an instance of ten of them scores
    /// ten shared connections or more.
    fn with_fan_out(graph: &Cdfg, fan: usize) -> Cdfg {
        let mut nodes: Vec<(OpKind, String)> = graph
            .nodes()
            .iter()
            .map(|nd| (nd.kind(), nd.label().to_owned()))
            .collect();
        let mut edges = graph.edges().to_vec();
        let inputs: Vec<NodeId> = graph.inputs().map(|nd| nd.id()).collect();
        let id = |i: usize| NodeId::new(i as u32);
        let producer = id(nodes.len());
        nodes.push((OpKind::Input, "fan".into()));
        for i in 0..fan {
            let (mul, out) = (id(nodes.len()), id(nodes.len() + 1));
            nodes.push((OpKind::Mul, format!("fan_mul{i}")));
            nodes.push((OpKind::Output, format!("fan_out{i}")));
            let operand = inputs[i % inputs.len()];
            for (from, to, port) in [(producer, mul, 0), (operand, mul, 1), (mul, out, 0)] {
                edges.push(Edge { from, to, port });
            }
        }
        Cdfg::from_parts(graph.name(), nodes, edges).expect("a fan-out keeps the graph valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every iteration's pruned ranking equals the exhaustive one
        /// (`Kernel::rank` asserts it in test builds) under every
        /// ablation switch. Pair bounds are exact scores, so the walk's
        /// rank-key cut decides every tie. Debug builds also check every
        /// kept table entry, fit and shared count against a recompute,
        /// under constant and stepwise budgets alike. `random_dag` ids
        /// are topological; `permute` relabels them, so some pairs are
        /// serialized with the higher id first and bootstrap's ancestor
        /// filter sees forward operand ids. `fan_out` adds one input
        /// feeding 12 to 19 multiplies, whose merges share ten
        /// connections or more (see
        /// `a_fan_out_reaches_ten_shared_connections`).
        #[test]
        fn pair_walk_ranks_exactly_like_brute_force(
            ops in 10usize..61,
            seed in any::<u64>(),
            mul_permille in 0u32..700,
            depth_bias in 0u32..4,
            slack in 0u32..3,
            power in 4.0f64..80.0,
            stepwise in any::<bool>(),
            step_permille in 0u32..1000,
            later_power in 4.0f64..80.0,
            module_selection in any::<bool>(),
            interconnect_scoring in any::<bool>(),
            backtracking in any::<bool>(),
            permute in any::<bool>(),
            fan_out in any::<bool>(),
        ) {
            let graph = random_dag(&RandomDagConfig {
                ops,
                inputs: 4,
                outputs: 3,
                mul_permille,
                depth_bias,
                seed,
            });
            let graph = if fan_out { with_fan_out(&graph, 12 + (seed % 8) as usize) } else { graph };
            let graph = if permute { relabelled(&graph, seed) } else { graph };
            let min_latency = Engine::new(paper_library()).compile(&graph).min_latency();
            let options = SynthesisOptions {
                backtracking,
                module_selection,
                interconnect_scoring,
            };
            let latency = min_latency * (1 + slack);
            // Stepwise: a second bound from a cycle inside the horizon on.
            let budget = if stepwise {
                PowerBudget::steps(vec![
                    (0, power),
                    (1 + (latency - 1) * step_permille / 1000, later_power),
                ])
            } else {
                PowerBudget::constant(power)
            };
            let constraints = SynthesisConstraints::new(latency, budget);
            // Infeasible points are fine: every ranking before the
            // failure was still checked.
            let _ = synth_tally(paper_library(), &graph, &constraints, &options);
        }

        /// The compiled rank is a topological numbering — a permutation
        /// of `0..n` that every edge climbs — and the identity on a
        /// graph whose every edge climbs in id: over `random_dag`
        /// graphs, their relabelled spellings and those spellings'
        /// text round trips.
        #[test]
        fn rank_is_a_topological_numbering(
            ops in 1usize..80,
            seed in any::<u64>(),
            depth_bias in 0u32..4,
        ) {
            let graph = random_dag(&RandomDagConfig {
                ops,
                depth_bias,
                seed,
                ..RandomDagConfig::default()
            });
            let spelled = relabelled(&graph, seed);
            let round_trip = parse_cdfg(&write_cdfg(&spelled)).unwrap();
            let engine = Engine::new(paper_library());
            for g in [graph, spelled, round_trip] {
                let compiled = engine.compile(&g);
                let rank = compiled.rank();
                let mut seen = vec![false; g.len()];
                for &r in rank {
                    prop_assert!((r as usize) < g.len() && !seen[r as usize]);
                    seen[r as usize] = true;
                }
                for e in g.edges() {
                    prop_assert!(rank[e.from.index()] < rank[e.to.index()]);
                }
                if g.edges().iter().all(|e| e.from < e.to) {
                    prop_assert!((0..).zip(rank).all(|(v, &r)| r == v));
                }
            }
        }

        /// Equal fingerprints give equal answers: an edge-order
        /// permutation keeps the fingerprint, and the kernel returns the
        /// same design or error with the same effort, on topological and
        /// relabelled ids alike.
        #[test]
        fn edge_order_keeps_the_fingerprint_and_the_answer(
            ops in 10usize..61,
            seed in any::<u64>(),
            permute in any::<bool>(),
            slack in 0u32..3,
            power in 4.0f64..80.0,
        ) {
            let graph = random_dag(&RandomDagConfig {
                ops,
                seed,
                ..RandomDagConfig::default()
            });
            let graph = if permute { relabelled(&graph, seed) } else { graph };
            let mut edges = graph.edges().to_vec();
            shuffle(&mut edges, seed ^ 0x6564_6765);
            let nodes = graph
                .nodes()
                .iter()
                .map(|nd| (nd.kind(), nd.label().to_owned()))
                .collect();
            let shuffled = Cdfg::from_parts(graph.name(), nodes, edges).unwrap();
            prop_assert_eq!(graph_fingerprint(&shuffled), graph_fingerprint(&graph));
            let min_latency = Engine::new(paper_library()).compile(&graph).min_latency();
            let constraints = SynthesisConstraints::new(min_latency * (1 + slack), power);
            let options = SynthesisOptions::default();
            prop_assert_eq!(
                synth_tally(paper_library(), &shuffled, &constraints, &options),
                synth_tally(paper_library(), &graph, &constraints, &options)
            );
        }
    }

    #[test]
    fn four_hundred_ops_keep_their_effort() {
        // Every debug check of the kept tables, windows, bests and held
        // ledger runs after each fill, at twice the size of any other
        // tier-1 graph, and the pins catch a skip rule that changes the
        // work done without changing the design. The brute-force
        // ranking is cubic in the op count (about 20 s per run in a
        // debug build on a 2-core host when it checks every ranking), so
        // it checks every 40th, and the four runs take about 5 s.
        BRUTE_FORCE_EVERY.set(40);
        let graph = random_dag(&RandomDagConfig {
            ops: 400,
            seed: 1,
            ..RandomDagConfig::default()
        });
        // The same graph spelled with forward operand ids, read back
        // from its text: its pair walk serializes by rank, not by id.
        let spelled = parse_cdfg(&write_cdfg(&relabelled(&graph, 1))).unwrap();
        let min_latency = Engine::new(paper_library()).compile(&graph).min_latency();
        assert_eq!(min_latency, 59);
        let cases = [
            // A constant budget: one first block rejected.
            (
                SynthesisConstraints::new(118, 30.0),
                SynthesisStats {
                    decisions: 406,
                    backtracks: 0,
                    rejected_candidates: 1,
                    fast_commits: 210,
                },
                Tally {
                    probed: 181,
                    pruned: 5_927_821,
                    visited: 162_926,
                    orders: 2,
                    placements: [360, 389],
                    ops_placed: 161_150,
                    first_rankings: 389,
                    full_rankings: 1,
                    entries_kept: 140_427,
                    entries_recomputed: 15_422,
                    fits_kept: 30_309,
                    fits_recomputed: 4_417,
                    rows_skipped: 70_212,
                    rows_visited: 8_697,
                },
            ),
            // A stepwise envelope: one backtrack, 150 full rankings.
            (
                SynthesisConstraints::new(118, PowerBudget::steps(vec![(0, 40.0), (59, 25.0)])),
                SynthesisStats {
                    decisions: 406,
                    backtracks: 1,
                    rejected_candidates: 1_791,
                    fast_commits: 261,
                },
                Tally {
                    probed: 6_070,
                    pruned: 8_054_880,
                    visited: 459_571,
                    orders: 2,
                    placements: [2_048, 390],
                    ops_placed: 456_243,
                    first_rankings: 390,
                    full_rankings: 150,
                    entries_kept: 126_274,
                    entries_recomputed: 29_746,
                    fits_kept: 37_031,
                    fits_recomputed: 4_659,
                    rows_skipped: 63_267,
                    rows_visited: 15_821,
                },
            ),
            // A tighter latency: one backtrack, 17 full rankings.
            (
                SynthesisConstraints::new(88, 40.0),
                SynthesisStats {
                    decisions: 406,
                    backtracks: 1,
                    rejected_candidates: 267,
                    fast_commits: 335,
                },
                Tally {
                    probed: 12_192,
                    pruned: 6_148_068,
                    visited: 127_086,
                    orders: 378,
                    placements: [422, 377],
                    ops_placed: 169_221,
                    first_rankings: 377,
                    full_rankings: 17,
                    entries_kept: 48_802,
                    entries_recomputed: 103_608,
                    fits_kept: 49_558,
                    fits_recomputed: 5_886,
                    rows_skipped: 24_185,
                    rows_visited: 53_047,
                },
            ),
        ];
        // The first case's point on the relabelled spelling: one
        // backtrack, 36 full rankings.
        let spelled_case = (
            SynthesisConstraints::new(118, 30.0),
            SynthesisStats {
                decisions: 406,
                backtracks: 1,
                rejected_candidates: 1_062,
                fast_commits: 304,
            },
            Tally {
                probed: 2_650,
                pruned: 6_689_263,
                visited: 316_279,
                orders: 2,
                placements: [1_227, 387],
                ops_placed: 369_431,
                first_rankings: 387,
                full_rankings: 36,
                entries_kept: 89_053,
                entries_recomputed: 66_633,
                fits_kept: 34_612,
                fits_recomputed: 4_229,
                rows_skipped: 44_207,
                rows_visited: 34_702,
            },
        );
        let runs = cases
            .into_iter()
            .map(|case| (&graph, case))
            .chain([(&spelled, spelled_case)]);
        for (graph, (constraints, stats, tally)) in runs {
            let (result, effort) = synth_tally(
                paper_library(),
                graph,
                &constraints,
                &SynthesisOptions::default(),
            );
            let design = result.unwrap();
            assert_eq!((design.stats, effort), (stats, tally), "{constraints:?}");
        }
    }

    #[test]
    fn a_commit_that_changes_a_delay_refreshes_the_successors_tables() {
        // Some commit here binds an op to a module of another delay
        // while the refit leaves the op's provisional start, and a
        // successor's, where they were: only the successor's recomputed
        // window shows the next fill that its ready time moved (debug
        // builds check every kept entry and fit after each fill).
        let graph = random_dag(&RandomDagConfig {
            ops: 41,
            inputs: 4,
            outputs: 3,
            mul_permille: 352,
            depth_bias: 3,
            seed: 12_026_496_503_943_690_672,
        });
        let latency = Engine::new(paper_library()).compile(&graph).min_latency();
        let options = SynthesisOptions {
            backtracking: false,
            module_selection: true,
            interconnect_scoring: true,
        };
        let constraints = SynthesisConstraints::new(latency, 17.730_829_042_676_476);
        // Infeasible without backtracking; every ranking before the
        // failure was still checked.
        let _ = synth_tally(paper_library(), &graph, &constraints, &options);
    }

    #[test]
    fn a_fan_out_reaches_ten_shared_connections() {
        // Integer scores rank exactly at every count, but float scores
        // (`area + 0.1·shared`) can first tie or order differently at
        // ten shared connections or more, which no other tier-1 graph
        // reaches. Every ranking here is checked against the brute
        // force, at a loose point where the multiplies fold onto few
        // instances and at the graph's minimum latency.
        BRUTE_FORCE_EVERY.set(1);
        MAX_SHARED.set(0);
        let graph = with_fan_out(
            &random_dag(&RandomDagConfig {
                ops: 20,
                inputs: 4,
                outputs: 3,
                seed: 3,
                ..RandomDagConfig::default()
            }),
            16,
        );
        let min_latency = Engine::new(paper_library()).compile(&graph).min_latency();
        for (latency, power) in [(min_latency * 3, 80.0), (min_latency, 40.0)] {
            for interconnect_scoring in [true, false] {
                let options = SynthesisOptions {
                    interconnect_scoring,
                    ..SynthesisOptions::default()
                };
                let constraints = SynthesisConstraints::new(latency, power);
                let (result, _) = synth_tally(paper_library(), &graph, &constraints, &options);
                result.unwrap();
            }
        }
        assert!(MAX_SHARED.get() >= 10, "largest count {}", MAX_SHARED.get());
    }

    #[test]
    fn a_rejected_first_block_falls_back_to_the_full_ranking() {
        // hal at T=10, P=20 rejects its whole first block in some
        // iterations, so the brute-force check above also compares full
        // rankings (and the debug assertion that they extend the block).
        let (result, tally) = synth_tally(
            paper_library(),
            &benchmarks::hal(),
            &SynthesisConstraints::new(10, 20.0),
            &SynthesisOptions::default(),
        );
        result.unwrap();
        assert_eq!(tally.first_rankings, 16, "one first block per iteration");
        assert!(tally.full_rankings > 0, "{tally:?}");
    }

    #[test]
    fn pair_walk_prunes_on_the_property_cases() {
        // The brute-force check above is only meaningful if the walk
        // actually skips pairs on such graphs.
        let graph = random_dag(&RandomDagConfig {
            ops: 60,
            seed: 7,
            ..RandomDagConfig::default()
        });
        let min_latency = Engine::new(paper_library()).compile(&graph).min_latency();
        let constraints = SynthesisConstraints::new(min_latency * 2, 40.0);
        let (result, tally) = synth_tally(
            paper_library(),
            &graph,
            &constraints,
            &SynthesisOptions::default(),
        );
        result.unwrap();
        assert!(tally.probed > 0 && tally.pruned > 0, "{tally:?}");
    }

    #[test]
    fn interconnect_cap_takes_the_larger_bucket_degree() {
        // `a = x*x` repeats its operand, so against the unary `out(x)` it
        // shares two connections — more than the output bucket's degree
        // of 1. That pair scores 10·20 + 2 tenths on `mul_out`, and so
        // does `add1` with `add2` (both `y0 + y1`); the tie goes to `a`,
        // the lower op id. A cap from the smaller bucket degree would
        // bound the `mul_out` entry at 10·20 + 1 and walk the adder entry
        // (10·20 + 3) first, and the adder pair kept from it would then
        // prune `a`'s pair.
        let library = ModuleLibrary::new([
            ModuleSpec::new("in", [OpKind::Input], 1, 1, 0.2),
            ModuleSpec::new("out", [OpKind::Output], 20, 1, 0.2),
            ModuleSpec::new("mul", [OpKind::Mul], 100, 1, 1.0),
            ModuleSpec::new("mul_out", [OpKind::Mul, OpKind::Output], 100, 1, 1.0),
            ModuleSpec::new("adder", [OpKind::Add], 20, 1, 0.2),
        ])
        .unwrap();
        let mut b = CdfgBuilder::new("square_fanout");
        let x = b.input("x");
        let y0 = b.input("y0");
        let y1 = b.input("y1");
        let a = b.mul(x, x);
        b.output("a", a);
        let out_x = b.output("x_out", x);
        let add1 = b.add(y0, y1);
        let add2 = b.add(y0, y1);
        b.output("add1", add1);
        b.output("add2", add2);
        let graph = b.finish().unwrap();
        let (result, _) = synth_tally(
            library,
            &graph,
            &SynthesisConstraints::new(20, 1000.0),
            &SynthesisOptions::default(),
        );
        let design = result.unwrap();
        assert_eq!(
            design.binding.instance_of(a),
            design.binding.instance_of(out_x),
            "the best-scoring pair merge was not committed"
        );
    }

    fn synth_opts(
        graph: &Cdfg,
        latency: u32,
        power: f64,
        options: &SynthesisOptions,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(graph);
        synthesize_recorded(
            &engine,
            &compiled,
            &SynthesisConstraints::new(latency, power),
            options,
            None,
        )
        .0
    }

    fn synth(graph: &Cdfg, latency: u32, power: f64) -> Result<SynthesizedDesign, SynthesisError> {
        synth_opts(graph, latency, power, &SynthesisOptions::default())
    }

    #[test]
    fn hal_paper_constraints_synthesize() {
        let g = benchmarks::hal();
        for (t, p) in [(10, 40.0), (10, 20.0), (17, 40.0), (17, 12.0)] {
            let d = synth(&g, t, p).unwrap_or_else(|e| panic!("T={t} P={p}: {e}"));
            d.validate(&g, &paper_library()).unwrap();
            assert!(d.latency <= t);
            assert!(d.peak_power <= p);
        }
    }

    #[test]
    fn cosine_and_elliptic_synthesize() {
        for (g, t) in [
            (benchmarks::cosine(), 12),
            (benchmarks::cosine(), 19),
            (benchmarks::elliptic(), 22),
        ] {
            let d = synth(&g, t, 60.0).unwrap_or_else(|e| panic!("{} T={t}: {e}", g.name()));
            d.validate(&g, &paper_library()).unwrap();
        }
    }

    #[test]
    fn infeasible_power_is_reported() {
        let g = benchmarks::hal();
        let err = synth(&g, 10, 2.0).unwrap_err();
        assert!(matches!(err, SynthesisError::Infeasible { .. }));
    }

    #[test]
    fn infeasible_latency_is_reported() {
        let g = benchmarks::hal();
        let err = synth(&g, 4, 1e6).unwrap_err();
        assert!(matches!(err, SynthesisError::Infeasible { .. }));
    }

    #[test]
    fn area_decreases_with_looser_power() {
        let g = benchmarks::hal();
        let tight = synth(&g, 17, 12.0).unwrap();
        let loose = synth(&g, 17, 200.0).unwrap();
        // More power headroom can only help the area objective (the
        // feasible design space strictly grows). The greedy is not
        // guaranteed monotone, but on hal it is and the paper's Figure 2
        // depends on this qualitative trend.
        assert!(
            loose.area <= tight.area,
            "loose {} > tight {}",
            loose.area,
            tight.area
        );
    }

    #[test]
    fn area_decreases_with_looser_latency() {
        let g = benchmarks::hal();
        let tight = synth(&g, 10, 40.0).unwrap();
        let loose = synth(&g, 30, 40.0).unwrap();
        assert!(
            loose.area <= tight.area,
            "loose {} > tight {}",
            loose.area,
            tight.area
        );
    }

    #[test]
    fn tight_latency_uses_parallel_multipliers() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let d = synth(&g, 10, 1e6).unwrap();
        let par = lib.by_name("mult_par").unwrap();
        assert!(
            d.binding.instances().iter().any(|i| i.module() == par),
            "T=10 requires at least one parallel multiplier"
        );
    }

    #[test]
    fn loose_latency_prefers_serial_multipliers() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let d = synth(&g, 40, 10.0).unwrap();
        let par = lib.by_name("mult_par").unwrap();
        // At T=40 with a 10.0 budget the 8.1-power parallel multiplier
        // is never worth opening: serial ones are smaller and pasap has
        // room to stretch.
        assert!(
            d.binding.instances().iter().all(|i| i.module() != par),
            "unexpected parallel multiplier in a relaxed design"
        );
    }

    #[test]
    fn multiplications_fold_before_io() {
        // The pair-merge ordering: with generous slack, the expensive
        // multipliers must share units (fewer instances than operations).
        let g = benchmarks::hal();
        let lib = paper_library();
        let d = synth(&g, 30, 25.0).unwrap();
        let mult_instances = d
            .binding
            .instances()
            .iter()
            .filter(|i| lib.module(i.module()).implements(pchls_cdfg::OpKind::Mul))
            .count();
        assert!(
            mult_instances < 6,
            "6 multiplications must not need 6 units at T=30"
        );
    }

    #[test]
    fn synthesis_is_deterministic() {
        // Repeated runs of the incremental kernel must agree exactly —
        // including the effort counters, which would diverge if the
        // fast-commit/dirty tracking were at all order-dependent.
        for (g, t, p) in [
            (benchmarks::cosine(), 15, 40.0),
            (benchmarks::hal(), 10, 20.0),
            (benchmarks::elliptic(), 22, 30.0),
        ] {
            let a = synth(&g, t, p).unwrap();
            let b = synth(&g, t, p).unwrap();
            assert_eq!(a, b, "{} T={t} P={p}", g.name());
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn incremental_kernel_skips_redundant_feasibility_checks() {
        // Most commits land operations exactly at their provisional
        // starts; the incremental kernel must prove those feasible
        // without re-running the scheduler.
        let g = benchmarks::hal();
        let d = synth(&g, 17, 25.0).unwrap();
        assert!(
            d.stats.fast_commits > 0,
            "no commit used the fast path: {:?}",
            d.stats
        );
    }

    #[test]
    fn every_op_is_bound_once() {
        let g = benchmarks::elliptic();
        let d = synth(&g, 25, 30.0).unwrap();
        assert!(d.binding.is_complete());
        let total_bound: usize = d.binding.instances().iter().map(|i| i.ops().len()).sum();
        assert_eq!(total_bound, g.len());
    }

    #[test]
    fn stats_count_decisions() {
        let g = benchmarks::hal();
        let d = synth(&g, 17, 25.0).unwrap();
        assert_eq!(d.stats.decisions, g.len());
    }

    #[test]
    fn ablation_no_backtracking_still_works_on_easy_points() {
        let g = benchmarks::hal();
        let opts = SynthesisOptions {
            backtracking: false,
            ..SynthesisOptions::default()
        };
        let d = synth_opts(&g, 20, 40.0, &opts).unwrap();
        d.validate(&g, &paper_library()).unwrap();
        assert_eq!(d.stats.backtracks, 0);
    }

    #[test]
    fn ablation_no_module_selection_uses_estimates_only() {
        let g = benchmarks::hal();
        let lib = paper_library();
        let opts = SynthesisOptions {
            module_selection: false,
            ..SynthesisOptions::default()
        };
        // Loose constraints: the MinArea bootstrap keeps serial
        // multipliers, so the design must contain no parallel ones.
        let d = synth_opts(&g, 40, 1e6, &opts).unwrap();
        let par = lib.by_name("mult_par").unwrap();
        assert!(d.binding.instances().iter().all(|i| i.module() != par));
    }
}
