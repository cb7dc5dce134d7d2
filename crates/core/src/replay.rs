//! Incremental re-synthesis: record one kernel run, replay it against
//! an edited graph.
//!
//! The greedy kernel ([`crate::synthesis`]) spends almost all of its
//! time enumerating and scoring candidates — O(n²·modules) pair merges
//! plus O(n·modules) ledger probes per iteration. After a small graph
//! edit most of that work is provably unchanged: an operation whose
//! dependence cones, timing, lock state, schedule rows and ledger
//! window all match the recorded base run must produce bit-identical
//! candidates, so its enumeration can be skipped and the recorded
//! scores trusted verbatim.
//!
//! The contract is **observation only**: a replayed run executes every
//! candidate *attempt* for real (apply → feasibility probe → commit or
//! undo), on real state, in the cold path's exact order. The memo is
//! only consulted to decide which candidates would have been generated
//! and how they would have scored; any operation for which that cannot
//! be proven (the *hot* set — typically the edit cone plus whatever
//! schedule perturbation leaked out of it) is evaluated fresh. The
//! result is byte-identical to a cold synthesis of the edited graph —
//! designs, decision traces and effort counters — which the
//! differential tests and the `edits` benchmark assert.
//!
//! Soundness leans on three facts established in `synthesis.rs`:
//!
//! 1. every score is a pure function of per-op state the quiet test
//!    compares exactly (f64 bit-equality falls out of equal inputs and
//!    identical arithmetic);
//! 2. the candidate ranking is a total order on `(score, start, op,
//!    enumeration index)`, and the replay key ([`CandKey`]) is
//!    order-isomorphic to the enumeration index;
//! 3. a quiet candidate ranking strictly above the recorded 64th entry
//!    is necessarily *in* the recorded top list, so truncating the
//!    merged stream at that bound loses nothing — and when it might
//!    (no commit before the bound), the kernel falls back to a full
//!    cold enumeration of that iteration.

use pchls_bind::{Binding, InstanceId};
use pchls_cdfg::{iter_and_above, Cdfg, GraphDelta, NodeId, NodeSet, Reachability};
use pchls_fulib::ModuleId;
use pchls_sched::{LockedStarts, OpTiming, PowerLedger, Schedule, TimingMap};

use crate::constraints::SynthesisConstraints;
use crate::options::SynthesisOptions;
use crate::synthesis::{
    existing_decision, fresh_decision, pair_decision, rank_order, Context, Decision, Target,
    MAX_ATTEMPTS,
};

/// Replay target of one recorded candidate, with instance identity
/// abstracted to a *bucket position*: "the p-th open instance of module
/// m" survives edits that renumber instances, a raw [`InstanceId`]
/// would not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecTarget {
    /// Merge onto the instance at `by_module[module][pos]`.
    Existing { pos: u32 },
    /// Open a dedicated instance.
    Fresh,
    /// Open a shared instance for the op and `partner` (base ids).
    FreshPair { partner: NodeId, partner_start: u32 },
}

/// Tie-break key mirroring the cold path's enumeration index: singles
/// sort as `(0, op, module position, bucket position | MAX)` and pairs
/// as `(1, min id, max id, module position)` — lexicographically
/// order-isomorphic to the enumeration order of `enumerate_candidates`.
/// Recorded keys hold base ids; replay rebuilds them with edited ids
/// (the delta mapping is id-monotone, so relative order is preserved).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CandKey {
    pub(crate) tier: u8,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
}

/// One entry of a recorded iteration's attempted ranking.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecCand {
    pub(crate) score: f64,
    pub(crate) start: u32,
    /// The decision's op (base id; for pairs the dependence-ordered
    /// *first* op).
    pub(crate) op: NodeId,
    pub(crate) module: ModuleId,
    pub(crate) target: RecTarget,
    pub(crate) key: CandKey,
}

/// Everything the replay-side quiet test compares for one recorded
/// kernel iteration, snapshotted at the enumeration point (after the
/// per-iteration buffers were rebuilt, before any attempt mutated
/// state).
#[derive(Debug, Clone)]
pub(crate) struct MemoIter {
    /// `pasap` starts per base op.
    pub(crate) provisional: Vec<u32>,
    /// `palap` (or fallback) starts per base op.
    pub(crate) late: Vec<u32>,
    /// Lock state per base op.
    pub(crate) locked: Vec<Option<u32>>,
    /// Timing entry per base op.
    pub(crate) timing: Vec<OpTiming>,
    /// Reserved ledger power per cycle, `0..horizon`.
    pub(crate) ledger_used: Vec<f64>,
    /// Unbound set at this iteration.
    pub(crate) unbound: NodeSet,
    /// Per module, per bucket position: the instance's bound ops,
    /// ascending (base ids).
    pub(crate) buckets: Vec<Vec<Vec<NodeId>>>,
    /// The iteration's `start0` score table (base layout).
    pub(crate) start0: Vec<Option<u32>>,
    /// The iteration's `avoided` score table (base layout).
    pub(crate) avoided: Vec<f64>,
    /// The attempted ranking, in order (at most `MAX_ATTEMPTS`).
    pub(crate) top: Vec<RecCand>,
    /// Whether `top` covers *every* enumerated candidate (fewer than
    /// the attempt cap existed).
    pub(crate) complete: bool,
    /// The committed decision's op(s), base ids — `None` only in the
    /// never-pushed pending draft.
    pub(crate) committed: Option<(NodeId, Option<NodeId>)>,
}

/// A recorded synthesis run: the per-iteration observation journal
/// [`Session::resynthesize`](crate::Session::resynthesize) replays
/// against an edited graph.
///
/// Produced by
/// [`Session::synthesize_recorded`](crate::Session::synthesize_recorded);
/// opaque by design — its only consumer is the replay kernel. A memo is
/// tied to the `(engine, compiled graph, constraints, options)` tuple
/// it was recorded under; replaying it through a different engine or
/// library is not meaningful (and is guarded against where cheap).
#[derive(Debug, Clone)]
pub struct SynthesisMemo {
    pub(crate) constraints: SynthesisConstraints,
    pub(crate) options: SynthesisOptions,
    /// Base graph length.
    pub(crate) n: usize,
    /// Library length at record time (cheap engine-identity guard).
    pub(crate) lib_len: usize,
    /// Bootstrap module estimates per base op.
    pub(crate) est_modules: Vec<ModuleId>,
    /// Base-graph transitive closure (pair orientation checks).
    pub(crate) base_reach: Option<Reachability>,
    /// One entry per committed iteration, in order; recording stops at
    /// the first backtrack (every later iteration depends on it).
    pub(crate) iters: Vec<MemoIter>,
    /// The iteration currently being assembled (record mode only).
    pub(crate) pending: Option<MemoIter>,
    /// Set at the first backtrack: nothing further is recorded.
    pub(crate) stopped: bool,
}

impl SynthesisMemo {
    /// An empty shell for the kernel's record mode to fill.
    pub(crate) fn empty(constraints: SynthesisConstraints, options: SynthesisOptions) -> Self {
        SynthesisMemo {
            constraints,
            options,
            n: 0,
            lib_len: 0,
            est_modules: Vec::new(),
            base_reach: None,
            iters: Vec::new(),
            pending: None,
            stopped: false,
        }
    }

    /// The constraint point this memo was recorded under (replays
    /// always re-use it — a memo is meaningless at any other point).
    #[must_use]
    pub fn constraints(&self) -> &SynthesisConstraints {
        &self.constraints
    }

    /// The kernel options this memo was recorded under.
    #[must_use]
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Number of operations in the recorded (base) graph.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.n
    }

    /// Number of recorded iterations (committed decisions); recording
    /// stops at the first backtrack, so this can be smaller than the
    /// run's iteration count.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iters.len()
    }

    /// Record-mode hook: run-level header, captured once after
    /// bootstrap.
    pub(crate) fn begin(
        &mut self,
        constraints: SynthesisConstraints,
        options: SynthesisOptions,
        n: usize,
        lib_len: usize,
        est_modules: Vec<ModuleId>,
        base_reach: Reachability,
    ) {
        self.constraints = constraints;
        self.options = options;
        self.n = n;
        self.lib_len = lib_len;
        self.est_modules = est_modules;
        self.base_reach = Some(base_reach);
        self.iters.clear();
        self.pending = None;
        self.stopped = false;
    }

    /// Record-mode hook: iteration-start state rows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_iteration(
        &mut self,
        provisional: &Schedule,
        late: &Schedule,
        locked: &LockedStarts,
        timing: &TimingMap,
        ledger: &PowerLedger,
        unbound: &NodeSet,
        binding: &Binding,
        by_module: &[Vec<InstanceId>],
        horizon: u32,
    ) {
        if self.stopped {
            return;
        }
        let ids = || (0..self.n).map(|i| NodeId::new(i as u32));
        let buckets = by_module
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&iid| {
                        let mut ops = binding.instance(iid).ops().to_vec();
                        ops.sort_unstable();
                        ops
                    })
                    .collect()
            })
            .collect();
        self.pending = Some(MemoIter {
            provisional: provisional.starts().to_vec(),
            late: late.starts().to_vec(),
            locked: ids().map(|id| locked.get(id)).collect(),
            timing: ids().map(|id| timing.of(id)).collect(),
            ledger_used: (0..horizon).map(|c| ledger.used(c)).collect(),
            unbound: unbound.clone(),
            buckets,
            start0: Vec::new(),
            avoided: Vec::new(),
            top: Vec::new(),
            complete: false,
            committed: None,
        });
    }

    /// Record-mode hook: the iteration's score tables, captured after
    /// `precompute_tables`.
    pub(crate) fn record_tables(&mut self, start0: &[Option<u32>], avoided: &[f64]) {
        if let Some(p) = self.pending.as_mut() {
            p.start0 = start0.to_vec();
            p.avoided = avoided.to_vec();
        }
    }

    /// Record-mode hook: the attempted ranking, captured after the
    /// top-k pass.
    pub(crate) fn record_top(
        &mut self,
        order: &[u32],
        candidates: &[Decision],
        by_module: &[Vec<InstanceId>],
        kind_modules: &[Vec<ModuleId>],
        graph: &Cdfg,
    ) {
        let Some(p) = self.pending.as_mut() else {
            return;
        };
        let module_selection = self.options.module_selection;
        let modules_for = |op: NodeId| -> &[ModuleId] {
            if module_selection {
                &kind_modules[graph.node(op).kind().index()]
            } else {
                std::slice::from_ref(&self.est_modules[op.index()])
            }
        };
        p.top.clear();
        p.top.reserve(order.len());
        for &i in order {
            let d = &candidates[i as usize];
            let m_pos = modules_for(d.op)
                .iter()
                .position(|&m| m == d.module)
                .expect("candidate module comes from modules_for") as u32;
            let (target, key) = match d.target {
                Target::Existing(iid) => {
                    let pos = by_module[d.module.index()]
                        .iter()
                        .position(|&x| x == iid)
                        .expect("existing target is an open instance of its module")
                        as u32;
                    (
                        RecTarget::Existing { pos },
                        CandKey {
                            tier: 0,
                            a: d.op.index() as u32,
                            b: m_pos,
                            c: pos,
                        },
                    )
                }
                Target::Fresh => (
                    RecTarget::Fresh,
                    CandKey {
                        tier: 0,
                        a: d.op.index() as u32,
                        b: m_pos,
                        c: u32::MAX,
                    },
                ),
                Target::FreshPair {
                    partner,
                    partner_start,
                } => {
                    let (lo, hi) = if d.op < partner {
                        (d.op, partner)
                    } else {
                        (partner, d.op)
                    };
                    (
                        RecTarget::FreshPair {
                            partner,
                            partner_start,
                        },
                        CandKey {
                            tier: 1,
                            a: lo.index() as u32,
                            b: hi.index() as u32,
                            c: m_pos,
                        },
                    )
                }
            };
            p.top.push(RecCand {
                score: d.score,
                start: d.start,
                op: d.op,
                module: d.module,
                target,
                key,
            });
        }
        p.complete = candidates.len() <= MAX_ATTEMPTS;
    }

    /// Record-mode hook: the iteration committed; push it.
    pub(crate) fn commit_iteration(&mut self, op: NodeId, partner: Option<NodeId>) {
        if let Some(mut p) = self.pending.take() {
            p.committed = Some((op, partner));
            self.iters.push(p);
        }
    }

    /// Record-mode hook: the iteration backtracked; recording ends
    /// (replays go cold from this iteration on).
    pub(crate) fn abort_recording(&mut self) {
        self.pending = None;
        self.stopped = true;
    }
}

/// Mutable replay cursor handed to the kernel: the memo + delta being
/// replayed, the next recorded iteration to gate against, and reusable
/// per-iteration classification buffers.
pub(crate) struct ReplayState<'m> {
    pub(crate) memo: &'m SynthesisMemo,
    pub(crate) delta: &'m GraphDelta,
    /// Index of the next un-consumed recorded iteration.
    pub(crate) ptr: usize,
    /// Once true, the rest of the run uses the cold path unmodified.
    pub(crate) full: bool,
    /// Per edited op: not provably quiet this iteration (`true` for
    /// every op that is bound, unmapped, touched, or state-divergent).
    hot: Vec<bool>,
    /// Per module: length of the trusted bucket-position prefix.
    trusted: Vec<usize>,
    /// Prefix counts of cycles whose reserved ledger power differs from
    /// the recorded iteration (`dirty_prefix[c]` = dirty cycles below
    /// `c`).
    dirty_prefix: Vec<u32>,
    /// Gated iterations taken (telemetry).
    pub(crate) gated_iterations: usize,
    /// Gated iterations that failed to commit within the recorded trust
    /// bound and had to re-enumerate cold. Each one costs gated planning
    /// *plus* a full cold iteration, so a run that keeps extending is
    /// strictly slower than the cold path — after a few, [`Self::align`]
    /// abandons the memo and finishes cold, bounding the worst case near
    /// the full-recompute cost.
    pub(crate) extensions: usize,
    /// Decayed sum of hot ops over recent gated iterations.
    hot_work: usize,
    /// Decayed sum of unbound ops over the same iterations.
    total_work: usize,
    /// Whether replay abandoned a still-useful memo because the run
    /// diverged (repeated extensions or a sustained hot majority) —
    /// distinct from `full` flipping on normal memo exhaustion.
    pub(crate) bailed: bool,
}

/// Extension fallbacks tolerated before replay bails to the cold path
/// for the rest of the run (see [`ReplayState::extensions`]).
const MAX_EXTENSIONS: usize = 3;

impl<'m> ReplayState<'m> {
    pub(crate) fn new(memo: &'m SynthesisMemo, delta: &'m GraphDelta) -> ReplayState<'m> {
        ReplayState {
            memo,
            delta,
            ptr: 0,
            full: false,
            hot: Vec::new(),
            trusted: Vec::new(),
            dirty_prefix: Vec::new(),
            gated_iterations: 0,
            extensions: 0,
            hot_work: 0,
            total_work: 0,
            bailed: false,
        }
    }

    /// Advances past recorded iterations whose committed operations are
    /// already consumed in this replay, and returns the index of the
    /// iteration to gate against — or `None` once the memo is exhausted
    /// (or replay already fell back to the cold path).
    pub(crate) fn align(&mut self, unbound: &NodeSet) -> Option<usize> {
        if !self.full
            && (self.extensions >= MAX_EXTENSIONS
                || (self.total_work >= 256 && self.hot_work * 2 > self.total_work))
        {
            self.full = true;
            self.bailed = true;
        }
        if self.full {
            return None;
        }
        loop {
            let Some(it) = self.memo.iters.get(self.ptr) else {
                self.full = true;
                return None;
            };
            let Some((op, partner)) = it.committed else {
                self.full = true;
                return None;
            };
            let consumed = |b: NodeId| match self.delta.map_base(b) {
                None => true,
                Some(e) => !unbound.contains(e),
            };
            if consumed(op) && partner.is_none_or(consumed) {
                self.ptr += 1;
                continue;
            }
            self.gated_iterations += 1;
            return Some(self.ptr);
        }
    }
}

/// One gated iteration's merged candidate stream, in the cold path's
/// exact attempt order.
pub(crate) struct GatedPlan {
    pub(crate) entries: Vec<Decision>,
    /// Whether attempting every entry without a commit proves the cold
    /// path would also have backtracked (no truncation happened, or the
    /// attempt cap was reached either way).
    pub(crate) exhaustive: bool,
    /// Hot (freshly evaluated) unbound ops this iteration (telemetry).
    pub(crate) hot_ops: usize,
}

/// Builds the candidate stream for one gated iteration: classifies
/// unbound ops as quiet/hot against the recorded iteration, copies the
/// recorded score tables for quiet ops (computing hot rows fresh),
/// realizes the trusted recorded candidates and merges in freshly
/// evaluated ones, sorted by the cold path's total order.
pub(crate) fn plan_gated_iteration(
    rs: &mut ReplayState<'_>,
    ctx: &mut Context<'_>,
    unbound_vec: &[NodeId],
    unbound_words: &[u64],
) -> GatedPlan {
    let memo = rs.memo;
    let delta = rs.delta;
    let it = &memo.iters[rs.ptr];
    let n = ctx.graph.len();
    let lib_len = ctx.library.len();
    let horizon = ctx.constraints.latency;

    // Cycles whose reserved power diverged from the recorded run, as
    // prefix counts: the quiet test needs "is any cycle of [ready,
    // deadline) dirty" in O(1). The recorded horizon equals this run's
    // (same constraints by construction).
    rs.dirty_prefix.clear();
    rs.dirty_prefix.reserve(horizon as usize + 1);
    rs.dirty_prefix.push(0);
    for c in 0..horizon {
        let last = *rs.dirty_prefix.last().expect("seeded with 0");
        let dirty = u32::from(ctx.ledger.used(c) != it.ledger_used[c as usize]);
        rs.dirty_prefix.push(last + dirty);
    }

    // Quiet/hot classification. `hot` defaults to true for every op, so
    // bound ops and ops outside `unbound_vec` are implicitly hot.
    rs.hot.clear();
    rs.hot.resize(n, true);
    let mut hot_ops = 0usize;
    for &u in unbound_vec {
        let quiet = is_quiet(ctx, memo, it, delta, &rs.dirty_prefix, u);
        rs.hot[u.index()] = !quiet;
        if !quiet {
            hot_ops += 1;
        }
    }
    // Decaying hot-work ratio: a mostly-hot gated iteration costs more
    // than a cold one (fresh evaluation plus classification), so when
    // the recent hot fraction crosses one half the next `align` bails
    // to the cold path. Halving both counters keeps the ratio weighted
    // toward the last few dozen iterations.
    rs.hot_work += hot_ops;
    rs.total_work += unbound_vec.len();
    if rs.total_work >= 4096 {
        rs.hot_work /= 2;
        rs.total_work /= 2;
    }

    // Trusted bucket-position prefix per module: position p is trusted
    // when the replay instance there provably has the recorded busy
    // intervals and op set (under the mapping). Trust stops at the
    // first mismatch — later positions are evaluated fresh.
    rs.trusted.clear();
    rs.trusted.resize(lib_len, 0);
    for m in 0..lib_len {
        let rbucket = &ctx.by_module[m];
        let mbucket = &it.buckets[m];
        let mut t = 0usize;
        while t < rbucket.len()
            && t < mbucket.len()
            && instance_trusted(ctx, it, delta, rbucket[t], &mbucket[t])
        {
            t += 1;
        }
        rs.trusted[m] = t;
    }

    fill_tables(ctx, rs, it, unbound_vec);
    let ctx = &*ctx;

    let mut entries: Vec<(Decision, CandKey)> = Vec::new();
    // Recorded candidates that survive the edit, realized against the
    // replay's instances.
    for rc in &it.top {
        if let Some(e) = realize(ctx, rs, rc) {
            entries.push(e);
        }
    }
    // Freshly evaluated singles: every (module, bucket position, fresh)
    // for hot ops, plus the untrusted bucket tail for quiet ops.
    for &u in unbound_vec {
        for (m_pos, &m) in ctx.modules_for(u).iter().enumerate() {
            let from = if rs.hot[u.index()] {
                0
            } else {
                rs.trusted[m.index()]
            };
            for (p, &iid) in ctx.by_module[m.index()].iter().enumerate().skip(from) {
                if let Some(d) = existing_decision(ctx, u, m, iid) {
                    entries.push((
                        d,
                        CandKey {
                            tier: 0,
                            a: u.index() as u32,
                            b: m_pos as u32,
                            c: p as u32,
                        },
                    ));
                }
            }
            if rs.hot[u.index()] {
                if let Some(d) = fresh_decision(ctx, u, m) {
                    entries.push((
                        d,
                        CandKey {
                            tier: 0,
                            a: u.index() as u32,
                            b: m_pos as u32,
                            c: u32::MAX,
                        },
                    ));
                }
            }
        }
    }
    // Freshly evaluated pairs: any pair with a hot endpoint, plus
    // quiet-quiet pairs whose dependence orientation flipped (their
    // recorded decision no longer matches the cold enumeration).
    let base_reach = memo.base_reach.as_ref().expect("recorded memo has a reach");
    for &u in unbound_vec {
        for v in iter_and_above(unbound_words, ctx.compat_row(u), u.index()) {
            let fresh_needed = rs.hot[u.index()] || rs.hot[v.index()] || {
                let ub = delta.map_edited(u).expect("quiet ops are mapped");
                let vb = delta.map_edited(v).expect("quiet ops are mapped");
                ctx.reach.reaches(v, u) != base_reach.reaches(vb, ub)
            };
            if !fresh_needed {
                continue;
            }
            let (first, second) = if ctx.reach.reaches(v, u) {
                (v, u)
            } else {
                (u, v)
            };
            for (m_pos, &m) in ctx.modules_for(first).iter().enumerate() {
                if let Some(d) = pair_decision(ctx, first, second, m) {
                    entries.push((
                        d,
                        CandKey {
                            tier: 1,
                            a: u.index() as u32,
                            b: v.index() as u32,
                            c: m_pos as u32,
                        },
                    ));
                }
            }
        }
    }

    // The cold path's total order: score desc, start asc, op asc, then
    // the enumeration-isomorphic key.
    entries.sort_by(|x, y| rank_order(&x.0, &y.0).then(x.1.cmp(&y.1)));

    let mut exhaustive = it.complete;
    if !it.complete {
        // The record was truncated at the attempt cap: only entries
        // strictly better than the recorded 64th (score, start) are
        // provably a prefix of the cold ranking — unknown base
        // candidates could interleave at or below the bound.
        if let Some(bound) = it.top.last() {
            entries.retain(|(d, _)| {
                d.score > bound.score || (d.score == bound.score && d.start < bound.start)
            });
        }
    }
    if entries.len() > MAX_ATTEMPTS {
        entries.truncate(MAX_ATTEMPTS);
        // The cold path would have stopped at the cap too.
        exhaustive = true;
    }
    GatedPlan {
        entries: entries.into_iter().map(|(d, _)| d).collect(),
        exhaustive,
        hot_ops,
    }
}

/// Whether every input the scoring of `u`'s candidates reads is
/// bit-identical to the recorded iteration — in which case its recorded
/// candidates (and their absence beyond the recorded list) are trusted
/// verbatim.
fn is_quiet(
    ctx: &Context<'_>,
    memo: &SynthesisMemo,
    it: &MemoIter,
    delta: &GraphDelta,
    dirty_prefix: &[u32],
    u: NodeId,
) -> bool {
    // Structurally identical and mapped: operand list, out-edges and
    // kind unchanged (touched covers added nodes too).
    if delta.touched().contains(u) {
        return false;
    }
    let Some(ub) = delta.map_edited(u) else {
        return false;
    };
    let ubi = ub.index();
    if !it.unbound.contains(ub) {
        return false;
    }
    // Own state rows.
    if ctx.locked.get(u) != it.locked[ubi] {
        return false;
    }
    let t = ctx.timing.of(u);
    let tb = it.timing[ubi];
    if t.delay != tb.delay || t.power != tb.power {
        return false;
    }
    if ctx.provisional.start(u) != it.provisional[ubi] || ctx.late.start(u) != it.late[ubi] {
        return false;
    }
    if !ctx.options.module_selection && ctx.est_modules[u.index()] != memo.est_modules[ubi] {
        return false;
    }
    // Operand readiness terms (positionally mapped — `u` is untouched).
    let mut ready = 0u32;
    for &p in ctx.graph.operands(u) {
        let Some(pb) = delta.map_edited(p) else {
            return false;
        };
        let term = ctx.provisional.start(p) + ctx.timing.delay(p);
        if term != it.provisional[pb.index()] + it.timing[pb.index()].delay {
            return false;
        }
        ready = ready.max(term);
    }
    // Locked-successor deadline term.
    let mut succ_min = u32::MAX;
    let mut succ_min_base = u32::MAX;
    for &s in ctx.graph.successors(u) {
        if let Some(ls) = ctx.locked.get(s) {
            succ_min = succ_min.min(ls);
        }
        let Some(sb) = delta.map_edited(s) else {
            return false;
        };
        if let Some(ls) = it.locked[sb.index()] {
            succ_min_base = succ_min_base.min(ls);
        }
    }
    if succ_min != succ_min_base {
        return false;
    }
    // Ledger window: every cycle a `candidate_start` probe for `u`
    // could consult must carry the recorded reserved power. The probe
    // window is module-independent — `earliest_fit_by(ready, ·, ·,
    // deadline)` reads cells within `[ready, min(deadline, horizon))`
    // only — and `ready`/`deadline` are built from quantities verified
    // equal above.
    let soft_deadline = (ctx.late.start(u) + t.delay).max(ctx.provisional.start(u) + t.delay);
    let deadline = succ_min.min(soft_deadline).min(ctx.constraints.latency);
    if ready < deadline && dirty_prefix[deadline as usize] - dirty_prefix[ready as usize] != 0 {
        return false;
    }
    true
}

/// Whether the replay instance at one bucket position provably equals
/// the recorded one: same op multiset under the mapping, every bound op
/// untouched with unchanged lock/timing — hence identical busy
/// intervals *and* identical interconnect-scoring neighbour sets.
fn instance_trusted(
    ctx: &Context<'_>,
    it: &MemoIter,
    delta: &GraphDelta,
    iid: InstanceId,
    memo_ops: &[NodeId],
) -> bool {
    let ops = ctx.binding.instance(iid).ops();
    if ops.len() != memo_ops.len() {
        return false;
    }
    let mut mapped: Vec<NodeId> = Vec::with_capacity(ops.len());
    for &w in ops {
        if delta.touched().contains(w) {
            return false;
        }
        let Some(wb) = delta.map_edited(w) else {
            return false;
        };
        if ctx.locked.get(w) != it.locked[wb.index()] {
            return false;
        }
        let t = ctx.timing.of(w);
        let tb = it.timing[wb.index()];
        if t.delay != tb.delay || t.power != tb.power {
            return false;
        }
        mapped.push(wb);
    }
    mapped.sort_unstable();
    mapped == memo_ops
}

/// Fills the iteration's score tables: quiet rows are copied from the
/// memo (they are provably bit-identical), hot rows are computed
/// exactly as `precompute_tables` would.
fn fill_tables(ctx: &mut Context<'_>, rs: &ReplayState<'_>, it: &MemoIter, unbound_vec: &[NodeId]) {
    let lib_len = ctx.library.len();
    let n = ctx.graph.len();
    let mut start0 = std::mem::take(&mut ctx.start0);
    start0.clear();
    start0.resize(n * lib_len, None);
    let mut avoided = std::mem::take(&mut ctx.avoided);
    avoided.clear();
    avoided.resize(n, 0.0);
    for &u in unbound_vec {
        if !rs.hot[u.index()] {
            let ub = rs.delta.map_edited(u).expect("quiet ops are mapped");
            for &m in ctx.kind_list(u) {
                start0[u.index() * lib_len + m.index()] =
                    it.start0[ub.index() * lib_len + m.index()];
            }
            avoided[u.index()] = it.avoided[ub.index()];
        } else {
            for &m in ctx.kind_list(u) {
                start0[u.index() * lib_len + m.index()] = ctx.candidate_start(u, m, 0);
            }
            let row = ctx.kind_list(u);
            avoided[u.index()] = row
                .iter()
                .filter(|&&m| start0[u.index() * lib_len + m.index()].is_some())
                .map(|&m| ctx.library.module(m).area())
                .min()
                .or_else(|| row.iter().map(|&m| ctx.library.module(m).area()).min())
                .map(f64::from)
                .expect("library coverage checked at bootstrap");
        }
    }
    ctx.start0 = start0;
    ctx.avoided = avoided;
}

/// Maps one recorded candidate into the replay, or drops it: dropped
/// candidates are exactly those the fresh-evaluation loops regenerate
/// (hot/unmapped/bound endpoints, untrusted bucket positions, flipped
/// pair orientations).
fn realize(ctx: &Context<'_>, rs: &ReplayState<'_>, rc: &RecCand) -> Option<(Decision, CandKey)> {
    let delta = rs.delta;
    let op = delta.map_base(rc.op)?;
    // `hot` is true for bound and unmapped ops too, so this single
    // check covers "still unbound and provably quiet".
    if rs.hot[op.index()] {
        return None;
    }
    match rc.target {
        RecTarget::Fresh => Some((
            Decision {
                op,
                module: rc.module,
                start: rc.start,
                target: Target::Fresh,
                score: rc.score,
            },
            CandKey {
                tier: 0,
                a: op.index() as u32,
                b: rc.key.b,
                c: u32::MAX,
            },
        )),
        RecTarget::Existing { pos } => {
            if (pos as usize) >= rs.trusted[rc.module.index()] {
                return None;
            }
            let iid = ctx.by_module[rc.module.index()][pos as usize];
            Some((
                Decision {
                    op,
                    module: rc.module,
                    start: rc.start,
                    target: Target::Existing(iid),
                    score: rc.score,
                },
                CandKey {
                    tier: 0,
                    a: op.index() as u32,
                    b: rc.key.b,
                    c: pos,
                },
            ))
        }
        RecTarget::FreshPair {
            partner,
            partner_start,
        } => {
            let p = delta.map_base(partner)?;
            if rs.hot[p.index()] {
                return None;
            }
            // Orientation must match: the recorded first op stays first
            // exactly when the dependence direction between the (id-
            // ordered) endpoints is unchanged. The mapping is
            // id-monotone, so min/max correspond across the graphs.
            let (ub, vb) = if rc.op < partner {
                (rc.op, partner)
            } else {
                (partner, rc.op)
            };
            let (u, v) = if op < p { (op, p) } else { (p, op) };
            let base_reach = rs.memo.base_reach.as_ref().expect("recorded memo");
            if ctx.reach.reaches(v, u) != base_reach.reaches(vb, ub) {
                return None;
            }
            Some((
                Decision {
                    op,
                    module: rc.module,
                    start: rc.start,
                    target: Target::FreshPair {
                        partner: p,
                        partner_start,
                    },
                    score: rc.score,
                },
                CandKey {
                    tier: 1,
                    a: u.index() as u32,
                    b: v.index() as u32,
                    c: rc.key.c,
                },
            ))
        }
    }
}
