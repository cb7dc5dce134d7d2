//! The combined power-constrained scheduling/allocation/binding loop.

use pchls_bind::{Binding, InstanceId};
use pchls_cdfg::{iter_and_above, Cdfg, NodeId, NodeSet, Reachability};
use pchls_fulib::{ModuleId, ModuleLibrary};
use pchls_sched::{
    palap_locked_budget, pasap_locked_budget, LockedStarts, OpTiming, PowerLedger, Schedule,
    ScheduleError, TimingMap,
};

use std::ops::ControlFlow;

use crate::constraints::SynthesisConstraints;
use crate::design::{SynthesisStats, SynthesizedDesign};
use crate::engine::{CompiledGraph, Engine, KindCompat, Progress};
use crate::error::SynthesisError;
use crate::options::SynthesisOptions;
use crate::replay::{plan_gated_iteration, GatedPlan, ReplayState, SynthesisMemo};
use crate::topk::TopK;

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
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Decision {
    pub(crate) op: NodeId,
    pub(crate) module: ModuleId,
    pub(crate) start: u32,
    pub(crate) target: Target,
    pub(crate) score: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    Existing(InstanceId),
    Fresh,
    FreshPair { partner: NodeId, partner_start: u32 },
}

/// How one kernel run interacts with the incremental-replay machinery
/// (see [`crate::replay`]): `Plain` runs are untouched, `Record` runs
/// additionally journal per-iteration observation state into a
/// [`SynthesisMemo`], and `Replay` runs consult a memo plus a graph
/// delta to skip candidate enumeration wherever the edit provably
/// cannot have changed it. All three modes produce byte-identical
/// designs and effort counters for the same `(graph, constraints,
/// options)` input.
pub(crate) enum KernelMode<'m, 'r> {
    Plain,
    Record(&'r mut SynthesisMemo),
    Replay(&'r mut ReplayState<'m>),
}

/// The combined loop over precompiled shared artifacts — the engine's
/// library indexes and the compiled graph's reachability/bootstrap
/// state. All public entry points
/// ([`Session::synthesize`](crate::Session::synthesize), sweeps,
/// batches) funnel here.
pub(crate) fn synthesize_session(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: &SynthesisConstraints,
    options: &SynthesisOptions,
    hook: Option<&mut dyn FnMut(Progress) -> ControlFlow<()>>,
) -> Result<SynthesizedDesign, SynthesisError> {
    synthesize_session_mode(
        engine,
        compiled,
        constraints,
        options,
        hook,
        KernelMode::Plain,
    )
}

/// [`synthesize_session`] with an explicit [`KernelMode`] — the
/// recording ([`crate::Session::synthesize_recorded`]) and replay
/// ([`crate::Session::resynthesize`]) entry points land here.
pub(crate) fn synthesize_session_mode(
    engine: &Engine,
    compiled: &CompiledGraph,
    constraints: &SynthesisConstraints,
    options: &SynthesisOptions,
    mut hook: Option<&mut dyn FnMut(Progress) -> ControlFlow<()>>,
    mut mode: KernelMode<'_, '_>,
) -> Result<SynthesizedDesign, SynthesisError> {
    let graph = compiled.graph();
    let library = engine.library();
    let reach = compiled.reachability();
    // Per-kind module candidate lists and the kind-compatibility matrix
    // are owned by the engine — computed once per library, not per
    // point. Incompatible kind pairs can never share a unit, so the
    // O(n²) pair loop drops them with one table load.
    let kind_modules = engine.kind_modules();
    let kind_compat = engine.kind_compat();
    let n = graph.len();
    // Normalize the budget once: a value-constant envelope (however it
    // was spelled) becomes the scalar `Constant`, so the thousands of
    // per-probe ledger constructions below take the O(1) collapse path
    // instead of re-scanning the envelope each time. Semantics within
    // the horizon are identical; the design still records the caller's
    // own constraints.
    let budget = constraints.budget.normalized(constraints.latency);
    let _synth_span = pchls_obs::span!("kernel.synthesize", "ops" => n);
    let (mut timing, est_modules) = {
        let _span = pchls_obs::span!("kernel.bootstrap");
        bootstrap(graph, library, constraints, &budget, reach, compiled)?
    };
    if let KernelMode::Record(memo) = &mut mode {
        memo.begin(
            constraints.clone(),
            *options,
            n,
            library.len(),
            est_modules.clone(),
            reach.clone(),
        );
    }

    let mut binding = Binding::new(n);
    let mut locked = LockedStarts::none(n);
    // Word-bitset membership of the not-yet-bound operations, in the
    // same packed layout as the `Reachability` rows and the compiled
    // kind-compat masks — pair enumeration ANDs it against a compat row
    // and walks the surviving words. `scratch.unbound_vec` below
    // re-materializes the ascending-id order the scoring pass iterates
    // in.
    let mut unbound = NodeSet::full(n);
    let mut unbound_count = n;
    let mut stats = SynthesisStats::default();
    // Iteration-scoped work buffers, allocated once per synthesize call
    // and `clear()`ed per iteration instead of rebuilt.
    let mut scratch = Scratch::new(library.len());

    // The per-cycle power reserved by locked operations, maintained
    // incrementally: candidate attempts reserve on apply and restore a
    // bit-exact snapshot on undo, instead of rebuilding the ledger from
    // the whole locked set every iteration.
    let mut ledger = PowerLedger::with_budget(constraints.latency, &budget);

    // Power-feasible early starts under the current commitments. A
    // commitment that locks operations exactly at their provisional
    // starts with unchanged timing leaves `pasap_locked`'s greedy output
    // unchanged (locked reservations are placed where the greedy itself
    // put them, and placement order is timing-determined), so the
    // schedule is only recomputed when a commit actually displaced an
    // operation or changed its module timing — the "dirty" commits.
    let mut provisional = {
        let _span = pchls_obs::span!("fds.refit");
        pasap_locked_budget(graph, &timing, &budget, constraints.latency, &locked)
            .map_err(|cause| SynthesisError::Infeasible { cause })?
    };
    let mut dirty = false;

    while unbound_count > 0 {
        // Progress/cancel hook: one event per greedy iteration. `None`
        // (every batch/sweep path) costs nothing.
        if let Some(h) = hook.as_deref_mut() {
            let snapshot = Progress {
                bound_ops: n - unbound_count,
                total_ops: n,
                backtracks: stats.backtracks,
                rejected_candidates: stats.rejected_candidates,
            };
            if h(snapshot).is_break() {
                return Err(SynthesisError::Cancelled);
            }
        }
        if dirty {
            let _span = pchls_obs::span!("fds.refit");
            provisional =
                pasap_locked_budget(graph, &timing, &budget, constraints.latency, &locked)
                    .map_err(|cause| SynthesisError::Infeasible { cause })?;
            dirty = false;
        }
        // The soft deadlines must track every lock, so the reversed
        // heuristic is recomputed each iteration. It can fail where the
        // forward one succeeded; fall back to zero mobility (late =
        // early, the provisional schedule itself), which is always safe
        // — borrowed, not cloned.
        let palap = {
            let _span = pchls_obs::span!("fds.palap");
            palap_locked_budget(graph, &timing, &budget, constraints.latency, &locked).ok()
        };
        let late = palap.as_ref().unwrap_or(&provisional);

        scratch.unbound_vec.clear();
        scratch.unbound_vec.extend(unbound.iter());
        instance_busy_into(&binding, &locked, &timing, &mut scratch.busy);
        // Open instances bucketed by module (ascending instance id per
        // row), so a candidate (op, module) only visits the instances it
        // could actually merge onto.
        for row in &mut scratch.by_module {
            row.clear();
        }
        for iid in binding.instance_ids() {
            scratch.by_module[binding.instance(iid).module().index()].push(iid);
        }
        // Replay alignment: whether this iteration is gated against a
        // recorded one; `false` means replay fell back to the cold path
        // for the rest of the run (or the mode never replays).
        let gated = match &mut mode {
            KernelMode::Replay(rs) => rs.align(&unbound).is_some(),
            _ => false,
        };
        if let KernelMode::Record(memo) = &mut mode {
            // Snapshot everything the replay-side quiet test compares —
            // taken here, after the per-iteration buffers are rebuilt
            // and before any candidate attempt mutates state.
            memo.begin_iteration(
                &provisional,
                late,
                &locked,
                &timing,
                &ledger,
                &unbound,
                &binding,
                &scratch.by_module,
                constraints.latency,
            );
        }

        // Try candidates best-first; a candidate commits only if the
        // remaining operations still admit a power-feasible schedule (the
        // paper's feasibility check). Rejected candidates are undone and
        // skipped; attempts are capped so a pathological iteration stays
        // cheap.
        //
        // The candidates come from one of two sources. A gated iteration
        // trusts the memo for every quiet operation (scores copied, not
        // recomputed) and evaluates only the hot cone fresh; a cold one
        // scores and ranks everything. Attempts run for real either way,
        // so state mutations, feasibility probes and effort counters are
        // identical by construction. A gated stream truncated at the
        // recorded trust bound without a commit takes a second, cold pass
        // that continues past the already-attempted prefix: every undo
        // restored state bit-exactly, and the busy/bucket scratch rows
        // are iteration-start snapshots the attempts never touch.
        let mut plan: Option<GatedPlan> = None;
        let mut attempts = 0u64;
        let committed = loop {
            let from_plan = gated && plan.is_none();
            let mut ctx = Context {
                graph,
                library,
                options,
                reach,
                compiled,
                timing: &timing,
                est_modules: &est_modules,
                kind_modules,
                binding: &binding,
                locked: &locked,
                ledger: &ledger,
                busy: &scratch.busy,
                by_module: &scratch.by_module,
                kind_compat,
                provisional: &provisional,
                late,
                constraints,
                peak_power: constraints.max_power(),
                start0: std::mem::take(&mut scratch.start0),
                avoided: std::mem::take(&mut scratch.avoided),
            };
            let order: &[u32] = if from_plan {
                let KernelMode::Replay(rs) = &mut mode else {
                    unreachable!("gated iterations only arise in replay mode")
                };
                let mut patch_span = pchls_obs::span!("kernel.patch");
                let p = plan_gated_iteration(rs, &mut ctx, &scratch.unbound_vec, unbound.words());
                patch_span.arg("hot", p.hot_ops);
                plan = Some(p);
                &[]
            } else {
                score_and_rank(
                    &mut ctx,
                    &scratch.unbound_vec,
                    unbound.words(),
                    &mut scratch.candidates,
                    &mut scratch.top,
                )
            };
            // Hand the score tables back for the next iteration and
            // release every `ctx` borrow before the attempts mutate state.
            scratch.start0 = std::mem::take(&mut ctx.start0);
            scratch.avoided = std::mem::take(&mut ctx.avoided);
            drop(ctx);
            let candidates: &[Decision] = &scratch.candidates;
            if let KernelMode::Record(memo) = &mut mode {
                memo.record_tables(&scratch.start0, &scratch.avoided);
                memo.record_top(order, candidates, &scratch.by_module, kind_modules, graph);
            }
            let planned: &[Decision] = match &plan {
                Some(p) if from_plan => &p.entries,
                _ => &[],
            };
            debug_assert!(
                plan.as_ref().is_none_or(|p| p
                    .entries
                    .iter()
                    .zip(order)
                    .all(|(e, &i)| *e == candidates[i as usize])),
                "replayed candidate prefix diverged from the cold ranking"
            );
            let tried = attempts;
            let mut commit_span = pchls_obs::span!("kernel.commit");
            let outcome = run_attempts(
                planned.iter().chain(
                    order
                        .iter()
                        .skip(tried as usize)
                        .map(|&i| &candidates[i as usize]),
                ),
                graph,
                library,
                constraints,
                &budget,
                &provisional,
                &mut binding,
                &mut locked,
                &mut timing,
                &mut ledger,
                &mut unbound,
                &mut unbound_count,
                &mut stats,
                &mut dirty,
                &mut attempts,
            );
            commit_span.arg("attempts", attempts - tried);
            drop(commit_span);
            match (&mut mode, &plan) {
                // The gated stream ran out at the trust bound: extend
                // into the cold pass. Repeated extensions mean the memo
                // no longer predicts this run — `align` bails to the
                // cold path after a few.
                (KernelMode::Replay(rs), Some(p))
                    if from_plan && outcome.is_none() && !p.exhaustive =>
                {
                    rs.extensions += 1;
                }
                _ => break outcome,
            }
        };
        match &mut mode {
            KernelMode::Record(memo) => match committed {
                Some(d) => memo.commit_iteration(
                    d.op,
                    match d.target {
                        Target::FreshPair { partner, .. } => Some(partner),
                        _ => None,
                    },
                ),
                // A backtracked iteration ends the usable recording:
                // replays go cold from here (see `ReplayState`).
                None => memo.abort_recording(),
            },
            // A backtrack invalidates every later recorded iteration
            // (recording stops at the first backtrack); finish the run
            // on the cold path.
            KernelMode::Replay(rs) if committed.is_none() => rs.full = true,
            _ => {}
        }
        if committed.is_none() {
            backtrack_all(
                graph,
                &timing,
                constraints,
                &budget,
                options,
                &scratch.unbound_vec,
                &provisional,
                &mut locked,
                &mut ledger,
                &mut stats,
            )?;
        }
    }

    // All operations bound and locked: the locked schedule is final.
    let final_schedule = if dirty {
        let _span = pchls_obs::span!("fds.refit");
        pasap_locked_budget(graph, &timing, &budget, constraints.latency, &locked)
            .map_err(SynthesisError::Schedule)?
    } else {
        provisional
    };
    binding.prune_empty();
    let mut design = SynthesizedDesign::assemble(
        final_schedule,
        timing,
        binding,
        library,
        constraints.clone(),
    );
    design.stats = stats;
    design.validate(graph, library)?;
    Ok(design)
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
                && saved
                    .partner_timing
                    .map(|(_, before)| {
                        unchanged(partner, partner_start, before, saved.applied_timing)
                    })
                    .unwrap_or(false)
        }
        _ => op_clean,
    }
}

/// Attempts candidates best-first until one commits: apply, prove
/// feasibility (fast-path for clean commits), keep or undo — the loop
/// body shared verbatim by the cold and gated (replay) paths, so both
/// produce identical state mutations and effort counters.
#[allow(clippy::too_many_arguments)]
fn run_attempts<'d>(
    cands: impl Iterator<Item = &'d Decision>,
    graph: &Cdfg,
    library: &ModuleLibrary,
    constraints: &SynthesisConstraints,
    budget: &pchls_sched::PowerBudget,
    provisional: &Schedule,
    binding: &mut Binding,
    locked: &mut LockedStarts,
    timing: &mut TimingMap,
    ledger: &mut PowerLedger,
    unbound: &mut NodeSet,
    unbound_count: &mut usize,
    stats: &mut SynthesisStats,
    dirty: &mut bool,
    attempts: &mut u64,
) -> Option<Decision> {
    for cand in cands {
        *attempts += 1;
        let saved = saved_state(cand, library, timing, locked, ledger);
        apply(cand, library, binding, locked, timing, ledger, &saved);
        // A candidate that locks its operation(s) exactly at their
        // provisional starts with unchanged timing cannot invalidate
        // the provisional schedule — it is feasible by construction
        // and the expensive re-schedule is skipped.
        let clean = is_clean(cand, &saved, provisional);
        let feasible = clean
            || pasap_locked_budget(graph, timing, budget, constraints.latency, locked).is_ok();
        if feasible {
            unbound.remove(cand.op);
            *unbound_count -= 1;
            stats.decisions += 1;
            if let Target::FreshPair { partner, .. } = cand.target {
                unbound.remove(partner);
                *unbound_count -= 1;
                stats.decisions += 1;
            }
            if clean {
                stats.fast_commits += 1;
            } else {
                *dirty = true;
            }
            return Some(*cand);
        }
        undo(cand, binding, locked, timing, ledger, &saved);
        stats.rejected_candidates += 1;
    }
    None
}

/// Every candidate stranded the remaining operations. The paper's
/// repair: backtrack (all failed decisions are already undone) and lock
/// every unscheduled operation to the last valid pasap schedule, then
/// continue with binding-only decisions. Locks land exactly at
/// provisional starts, so the provisional schedule remains valid (not
/// dirty).
#[allow(clippy::too_many_arguments)]
fn backtrack_all(
    graph: &Cdfg,
    timing: &TimingMap,
    constraints: &SynthesisConstraints,
    budget: &pchls_sched::PowerBudget,
    options: &SynthesisOptions,
    unbound_vec: &[NodeId],
    provisional: &Schedule,
    locked: &mut LockedStarts,
    ledger: &mut PowerLedger,
    stats: &mut SynthesisStats,
) -> Result<(), SynthesisError> {
    if !options.backtracking {
        return Err(SynthesisError::Infeasible {
            cause: ScheduleError::Infeasible {
                node: unbound_vec[0],
                horizon: constraints.latency,
                max_power: constraints.max_power(),
            },
        });
    }
    for &v in unbound_vec {
        locked.lock(v, provisional.start(v));
    }
    // Rebuild the ledger from the full locked set (the newly locked
    // operations were not reserved incrementally).
    *ledger = locked_ledger(graph, timing, locked, constraints.latency, budget)?;
    stats.backtracks += 1;
    Ok(())
}

/// Candidate attempts per iteration: commits are tried best-first and a
/// pathological iteration must stay cheap.
pub(crate) const MAX_ATTEMPTS: usize = 64;

/// Read-only state shared by the candidate enumeration helpers, plus
/// per-iteration score tables (every tabulated quantity depends only on
/// state that is fixed for the whole enumeration pass, so the tables are
/// filled up-front).
pub(crate) struct Context<'a> {
    pub(crate) graph: &'a Cdfg,
    pub(crate) library: &'a ModuleLibrary,
    pub(crate) options: &'a SynthesisOptions,
    pub(crate) reach: &'a Reachability,
    /// Source of the compiled kind-compat node masks (see
    /// [`Context::compat_row`]).
    pub(crate) compiled: &'a CompiledGraph,
    pub(crate) timing: &'a TimingMap,
    pub(crate) est_modules: &'a [ModuleId],
    /// Per-kind module candidate lists, indexed by [`OpKind::index`].
    pub(crate) kind_modules: &'a [Vec<ModuleId>],
    pub(crate) binding: &'a Binding,
    pub(crate) locked: &'a LockedStarts,
    pub(crate) ledger: &'a PowerLedger,
    pub(crate) busy: &'a [Vec<(u32, u32)>],
    /// Open instances per library module, ascending instance id.
    pub(crate) by_module: &'a [Vec<InstanceId>],
    /// `kind_compat[a][b]`: some module implements both kinds.
    pub(crate) kind_compat: &'a KindCompat,
    pub(crate) provisional: &'a Schedule,
    pub(crate) late: &'a Schedule,
    pub(crate) constraints: &'a SynthesisConstraints,
    /// Cached `constraints.max_power()` — the peak per-cycle bound any
    /// cycle can see (the bound itself for scalar constraints).
    pub(crate) peak_power: f64,
    /// Tabulated `candidate_start(op, m, 0)`, flattened as
    /// `op.index() * library.len() + m.index()`; filled for every unbound
    /// op over its kind's candidate modules (the only entries scoring
    /// reads). The pair-merge loop queries these O(n²·modules) times for
    /// only O(n·modules) distinct answers.
    pub(crate) start0: Vec<Option<u32>>,
    /// Tabulated [`Context::avoided_area`] per unbound operation.
    pub(crate) avoided: Vec<f64>,
}

/// The per-cycle power already reserved by locked operations.
fn locked_ledger(
    graph: &Cdfg,
    timing: &TimingMap,
    locked: &LockedStarts,
    latency: u32,
    budget: &pchls_sched::PowerBudget,
) -> Result<PowerLedger, SynthesisError> {
    let mut ledger = PowerLedger::with_budget(latency, budget);
    for id in graph.node_ids() {
        if let Some(s) = locked.get(id) {
            let t = timing.of(id);
            if !ledger.fits(s, t.delay, t.power) {
                // As in `pasap`'s locked pass: name the cycle that
                // actually rejects the reservation, not the interval's
                // start (they differ under an envelope).
                let v = ledger
                    .first_unfit_cycle(s, t.delay, t.power)
                    .expect("fits just failed");
                return Err(SynthesisError::Schedule(ScheduleError::PowerExceeded {
                    cycle: v,
                    power: ledger.used(v) + t.power,
                    bound: ledger.bound(v),
                }));
            }
            ledger.reserve(s, t.delay, t.power);
        }
    }
    Ok(ledger)
}

/// Busy intervals of each instance (bound ops are always locked),
/// rebuilt into `busy` — rows are cleared and reused, not reallocated.
fn instance_busy_into(
    binding: &Binding,
    locked: &LockedStarts,
    timing: &TimingMap,
    busy: &mut Vec<Vec<(u32, u32)>>,
) {
    let count = binding.instance_ids().count();
    busy.truncate(count);
    for row in busy.iter_mut() {
        row.clear();
    }
    busy.resize_with(count, Vec::new);
    for iid in binding.instance_ids() {
        let row = &mut busy[iid.index()];
        for &op in binding.instance(iid).ops() {
            let s = locked.get(op).expect("bound ops are locked");
            row.push((s, s + timing.delay(op)));
        }
    }
}

/// Per-call work buffers for the greedy iteration loop, `clear()`ed and
/// refilled each iteration instead of reallocated — the iteration loop
/// runs `n/2`–`n` times per synthesize call, so the rebuilt-vec churn
/// (ids, busy rows, module buckets, candidates, score tables, ranking)
/// used to dominate small-point allocations.
struct Scratch {
    /// Unbound ops in ascending id order (the scoring iteration order).
    unbound_vec: Vec<NodeId>,
    /// Busy intervals per instance, indexed by instance id.
    busy: Vec<Vec<(u32, u32)>>,
    /// Open instances per library module, ascending instance id.
    by_module: Vec<Vec<InstanceId>>,
    /// The iteration's enumerated decisions.
    candidates: Vec<Decision>,
    /// Bounded best-`MAX_ATTEMPTS` ranking over candidate indices.
    top: TopK<u32>,
    /// `Context::start0` score table, handed back after each iteration.
    start0: Vec<Option<u32>>,
    /// `Context::avoided` score table, handed back after each iteration.
    avoided: Vec<f64>,
}

impl Scratch {
    fn new(lib_len: usize) -> Scratch {
        Scratch {
            unbound_vec: Vec::new(),
            busy: Vec::new(),
            by_module: vec![Vec::new(); lib_len],
            candidates: Vec::new(),
            top: TopK::new(MAX_ATTEMPTS),
            start0: Vec::new(),
            avoided: Vec::new(),
        }
    }
}

impl Context<'_> {
    /// Fills the `start0`/`avoided` score tables for the unbound
    /// operations.
    fn precompute_tables(&mut self, unbound: &[NodeId]) {
        let lib_len = self.library.len();
        // The tables live in the caller's scratch between iterations:
        // clear + resize reuses their capacity while resetting every
        // entry (only unbound rows are ever read, and those are all
        // rewritten below).
        let mut start0 = std::mem::take(&mut self.start0);
        start0.clear();
        start0.resize(self.graph.len() * lib_len, None);
        for &u in unbound {
            for &m in self.kind_list(u) {
                start0[u.index() * lib_len + m.index()] = self.candidate_start(u, m, 0);
            }
        }
        let mut avoided = std::mem::take(&mut self.avoided);
        avoided.clear();
        avoided.resize(self.graph.len(), 0.0);
        for &u in unbound {
            let row = self.kind_list(u);
            // Area of the cheapest library module that could *feasibly*
            // execute `u` in the current state — the unit a successful
            // merge avoids opening. Feasibility matters: when the latency
            // bound rules the serial multiplier out for an operation,
            // merging it onto a parallel multiplier avoids a 339-area
            // unit, not a 103-area one.
            avoided[u.index()] = row
                .iter()
                .filter(|&&m| start0[u.index() * lib_len + m.index()].is_some())
                .map(|&m| self.library.module(m).area())
                .min()
                .or_else(|| {
                    // Nothing currently fits (rare, mid-backtrack): fall
                    // back to the global cheapest so scoring stays total.
                    row.iter().map(|&m| self.library.module(m).area()).min()
                })
                .map(f64::from)
                .expect("library coverage checked at bootstrap");
        }
        self.start0 = start0;
        self.avoided = avoided;
    }

    /// The candidate modules of `op`'s kind.
    pub(crate) fn kind_list(&self, op: NodeId) -> &[ModuleId] {
        &self.kind_modules[self.graph.node(op).kind().index()]
    }

    /// Compiled node-mask row of `op`'s kind: bit `j` set iff some
    /// module implements both `op`'s kind and node `j`'s kind. ANDed
    /// against the unbound bitset this yields exactly the partners
    /// `pair_decisions` would not reject on kind grounds.
    pub(crate) fn compat_row(&self, op: NodeId) -> &[u64] {
        self.compiled.compat_row(self.graph.node(op).kind())
    }

    /// Tabulated avoided area of `op` (unbound ops only).
    pub(crate) fn avoided_area(&self, op: NodeId) -> f64 {
        self.avoided[op.index()]
    }

    /// Tabulated `candidate_start(op, m, 0)` — the form every scoring
    /// path asks for repeatedly. Valid for unbound `op` and any `m`
    /// implementing its kind.
    pub(crate) fn candidate_start0(&self, op: NodeId, m: ModuleId) -> Option<u32> {
        self.start0[op.index() * self.library.len() + m.index()]
    }

    /// The earliest feasible start for `op` executed on module `m`, no
    /// earlier than `not_before`. Respects the power ledger, the
    /// palap-estimated deadline (softened so the provisional slot always
    /// qualifies), locked direct successors, and — for locked ops — the
    /// fixed slot and timing.
    pub(crate) fn candidate_start(&self, op: NodeId, m: ModuleId, not_before: u32) -> Option<u32> {
        let spec = self.library.module(m);
        if let Some(s) = self.locked.get(op) {
            let cur = self.timing.of(op);
            if spec.latency() != cur.delay || (spec.power() - cur.power).abs() > 1e-9 {
                return None; // reservation coherence
            }
            return (s >= not_before).then_some(s);
        }
        let delay = spec.latency();
        let power = spec.power();
        if power > self.peak_power + 1e-9 {
            return None;
        }
        let ready = self
            .graph
            .operands(op)
            .iter()
            .map(|&p| self.provisional.start(p) + self.timing.delay(p))
            .max()
            .unwrap_or(0)
            .max(not_before);
        // Soft palap deadline: never tighter than the provisional slot.
        let soft_deadline = (self.late.start(op) + self.timing.delay(op))
            .max(self.provisional.start(op) + self.timing.delay(op));
        // Hard bounds: the latency constraint and locked successors.
        let deadline = self
            .graph
            .successors(op)
            .iter()
            .filter_map(|&s| self.locked.get(s))
            .min()
            .unwrap_or(u32::MAX)
            .min(soft_deadline)
            .min(self.constraints.latency);
        // Deadline-bounded offset search on the ledger (log-time skips,
        // identical result to the old cycle-by-cycle scan).
        self.ledger.earliest_fit_by(ready, delay, power, deadline)
    }

    /// Interconnect bonus: shared operand producers / result consumers.
    pub(crate) fn interconnect(&self, u: NodeId, others: &[NodeId]) -> f64 {
        if !self.options.interconnect_scoring {
            return 0.0;
        }
        let mut shared = 0usize;
        for &v in others {
            shared += self
                .graph
                .operands(u)
                .iter()
                .filter(|p| self.graph.operands(v).contains(p))
                .count();
            shared += self
                .graph
                .successors(u)
                .iter()
                .filter(|c| self.graph.successors(v).contains(c))
                .count();
        }
        shared as f64 * self.options.weights.interconnect
    }

    /// Modules allowed for `op` under the ablation switches (borrowed —
    /// no per-query allocation).
    pub(crate) fn modules_for(&self, op: NodeId) -> &[ModuleId] {
        if self.options.module_selection {
            self.kind_list(op)
        } else {
            std::slice::from_ref(&self.est_modules[op.index()])
        }
    }
}

/// Scores every feasible decision for the unbound operations into
/// `candidates` and ranks the best `MAX_ATTEMPTS` of them into `top`,
/// returning candidate indices best-first.
///
/// Deterministic order: [`rank_order`], then enumeration index — the
/// index makes the comparison a *total* order, so the kept top-k set is
/// unique and the bounded heap equals a stable full sort truncated to
/// `MAX_ATTEMPTS`. One pass, one persistent buffer: each also-ran
/// candidate costs a single comparison against the heap's worst kept
/// entry.
fn score_and_rank<'t>(
    ctx: &mut Context<'_>,
    unbound_vec: &[NodeId],
    unbound_words: &[u64],
    candidates: &mut Vec<Decision>,
    top: &'t mut TopK<u32>,
) -> &'t [u32] {
    {
        let mut score_span = pchls_obs::span!("kernel.score");
        ctx.precompute_tables(unbound_vec);
        candidates.clear();
        enumerate_candidates(ctx, unbound_vec, unbound_words, candidates);
        score_span.arg("candidates", candidates.len());
    }
    let cmp = |&x: &u32, &y: &u32| {
        rank_order(&candidates[x as usize], &candidates[y as usize]).then(x.cmp(&y))
    };
    let _span = pchls_obs::span!("kernel.topk");
    top.clear();
    for i in 0..candidates.len() as u32 {
        top.push(i, cmp);
    }
    top.sorted(cmp)
}

/// The ranking order on decisions: best score first, then earlier
/// start, then smaller op id. Callers complete it into a total order
/// with an enumeration-position tie-break.
pub(crate) fn rank_order(a: &Decision, b: &Decision) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .expect("scores are finite")
        .then(a.start.cmp(&b.start))
        .then(a.op.cmp(&b.op))
}

/// Enumerates every feasible decision for the unbound operations into
/// `out` (cleared by the caller): each op's existing-instance merges and
/// dedicated fallback, then every pair merge.
///
/// Pair partners come from a word walk, not a nested scan: for each
/// unbound `u`, `unbound ∧ compat_row(kind(u)) ∧ (id > u)` is two
/// word-`AND`s walked with `trailing_zeros` ([`iter_and_above`]). The
/// surviving ids are exactly the partners the scalar `v`-loop would
/// have fed `pair_decisions` that pass its kind-compatibility
/// early-return, in the same ascending order — dropped pairs produced
/// no decisions, so enumeration indices (and the trace) are unchanged.
fn enumerate_candidates(
    ctx: &Context<'_>,
    unbound_vec: &[NodeId],
    unbound_words: &[u64],
    out: &mut Vec<Decision>,
) {
    for &u in unbound_vec {
        single_decisions(ctx, u, out);
    }
    for &u in unbound_vec {
        for v in iter_and_above(unbound_words, ctx.compat_row(u), u.index()) {
            pair_decisions(ctx, u, v, out);
        }
    }
}

/// Appends the decisions binding one unbound operation on its own:
/// merges onto each compatible existing instance, plus the
/// dedicated-instance fallback, in enumeration order.
fn single_decisions(ctx: &Context<'_>, u: NodeId, out: &mut Vec<Decision>) {
    for &m in ctx.modules_for(u) {
        // (1) Merge onto an existing instance: earliest start at which
        // the instance is free and power fits. Starting later than the
        // op's free earliest start consumes schedule slack and is
        // penalized (see `CostWeights::displacement`).
        for &iid in &ctx.by_module[m.index()] {
            if let Some(d) = existing_decision(ctx, u, m, iid) {
                out.push(d);
            }
        }
        // (3) Dedicated instance (fallback).
        if let Some(d) = fresh_decision(ctx, u, m) {
            out.push(d);
        }
    }
}

/// The decision merging unbound `u` onto existing instance `iid` of
/// module `m`, if it fits.
pub(crate) fn existing_decision(
    ctx: &Context<'_>,
    u: NodeId,
    m: ModuleId,
    iid: InstanceId,
) -> Option<Decision> {
    let s = earliest_instance_fit(ctx, u, m, iid)?;
    let free_start = ctx.candidate_start0(u, m);
    let displaced = f64::from(s - free_start.expect("fit implies a free start"));
    let inst = ctx.binding.instance(iid);
    // The +1 bonus breaks ties against pair merges: growing an existing
    // clique saves one unit per *one* operation consumed, a pair saves
    // one unit per two — without the bonus the greedy fragments large
    // op classes into many two-op instances.
    Some(Decision {
        op: u,
        module: m,
        start: s,
        target: Target::Existing(iid),
        score: ctx.options.weights.area * ctx.avoided_area(u) + ctx.interconnect(u, inst.ops())
            - ctx.options.weights.displacement * displaced
            + 1.0,
    })
}

/// The decision opening a dedicated instance of module `m` for `u`, if
/// a power-feasible start exists.
pub(crate) fn fresh_decision(ctx: &Context<'_>, u: NodeId, m: ModuleId) -> Option<Decision> {
    let s = ctx.candidate_start0(u, m)?;
    let area = f64::from(ctx.library.module(m).area());
    Some(Decision {
        op: u,
        module: m,
        start: s,
        target: Target::Fresh,
        score: -ctx.options.weights.area * area,
    })
}

/// Appends the pair-merge decisions for one unordered pair of unbound
/// operations, in enumeration order.
fn pair_decisions(ctx: &Context<'_>, u: NodeId, v: NodeId, out: &mut Vec<Decision>) {
    // Kind-incompatible pairs (no module covers both kinds) are already
    // dropped by the callers' compat-mask word walk.
    debug_assert!(
        ctx.kind_compat[ctx.graph.node(u).kind().index()][ctx.graph.node(v).kind().index()],
        "pair enumeration fed a kind-incompatible pair"
    );
    // Serialize in dependence order if one exists.
    let (first, second) = if ctx.reach.reaches(v, u) {
        (v, u)
    } else {
        (u, v)
    };
    for &m in ctx.modules_for(first) {
        if let Some(d) = pair_decision(ctx, first, second, m) {
            out.push(d);
        }
    }
}

/// The decision opening one shared instance of module `m` for the
/// dependence-ordered pair `(first, second)`, if the merge is
/// profitable and feasible.
pub(crate) fn pair_decision(
    ctx: &Context<'_>,
    first: NodeId,
    second: NodeId,
    m: ModuleId,
) -> Option<Decision> {
    let spec = ctx.library.module(m);
    if !spec.implements(ctx.graph.node(second).kind()) {
        return None;
    }
    let gain = ctx.avoided_area(first) + ctx.avoided_area(second) - f64::from(spec.area());
    if gain <= 0.0 {
        return None; // two dedicated cheapest units are no worse
    }
    let s1 = ctx.candidate_start0(first, m)?;
    let s2_free = ctx.candidate_start0(second, m)?;
    let s2 = ctx.candidate_start(second, m, s1 + spec.latency())?;
    // Dependence-ordered pairs serialize for free (s2 at its natural
    // slot); concurrent siblings pay for the slack their serialization
    // consumes.
    let displaced = f64::from(s2 - s2_free);
    Some(Decision {
        op: first,
        module: m,
        start: s1,
        target: Target::FreshPair {
            partner: second,
            partner_start: s2,
        },
        score: ctx.options.weights.area * gain + ctx.interconnect(first, &[second])
            - ctx.options.weights.displacement * displaced,
    })
}

/// Earliest start at which `u` can execute on instance `iid` of module
/// `m`: power-feasible and not overlapping the instance's busy intervals.
fn earliest_instance_fit(
    ctx: &Context<'_>,
    u: NodeId,
    m: ModuleId,
    iid: InstanceId,
) -> Option<u32> {
    let delay = ctx.library.module(m).latency();
    let busy = &ctx.busy[iid.index()];
    let mut s = ctx.candidate_start0(u, m)?;
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
                s = ctx.candidate_start(u, m, resume)?;
            }
        }
    }
}

/// State saved for undoing a decision: previous timing entries, previous
/// lock state, and bit-exact ledger snapshots of the touched cycles.
struct Saved {
    op_timing: OpTiming,
    /// Timing written by `apply` (the module spec's delay/power).
    applied_timing: OpTiming,
    /// Whether the op was already locked (then its power is already in
    /// the ledger and must be neither re-reserved nor released).
    op_was_locked: bool,
    partner_timing: Option<(NodeId, OpTiming)>,
    partner_was_locked: bool,
    /// `(start, previous ledger values)` for every interval reserved by
    /// `apply`, restored verbatim on undo.
    ledger_rows: Vec<(u32, Vec<f64>)>,
}

fn saved_state(
    cand: &Decision,
    library: &ModuleLibrary,
    timing: &TimingMap,
    locked: &LockedStarts,
    ledger: &PowerLedger,
) -> Saved {
    let spec = library.module(cand.module);
    // The timing `apply` will write — snapshots must cover the interval
    // that gets reserved, which uses the *new* module's latency.
    let applied_timing = OpTiming {
        delay: spec.latency(),
        power: spec.power(),
    };
    let mut ledger_rows = Vec::with_capacity(2);
    let op_was_locked = locked.is_locked(cand.op);
    if !op_was_locked {
        ledger_rows.push((
            cand.start,
            ledger.snapshot(cand.start, applied_timing.delay),
        ));
    }
    let (partner_timing, partner_was_locked) = match cand.target {
        Target::FreshPair {
            partner,
            partner_start,
        } => {
            let was = locked.is_locked(partner);
            if !was {
                ledger_rows.push((
                    partner_start,
                    ledger.snapshot(partner_start, applied_timing.delay),
                ));
            }
            (Some((partner, timing.of(partner))), was)
        }
        _ => (None, false),
    };
    Saved {
        op_timing: timing.of(cand.op),
        applied_timing,
        op_was_locked,
        partner_timing,
        partner_was_locked,
        ledger_rows,
    }
}

fn apply(
    cand: &Decision,
    library: &ModuleLibrary,
    binding: &mut Binding,
    locked: &mut LockedStarts,
    timing: &mut TimingMap,
    ledger: &mut PowerLedger,
    saved: &Saved,
) {
    let spec = library.module(cand.module);
    let t = OpTiming {
        delay: spec.latency(),
        power: spec.power(),
    };
    timing.set(cand.op, t);
    locked.lock(cand.op, cand.start);
    if !saved.op_was_locked {
        ledger.reserve(cand.start, t.delay, t.power);
    }
    match cand.target {
        Target::Existing(i) => binding.bind(cand.op, i),
        Target::Fresh => {
            let i = binding.new_instance(cand.module);
            binding.bind(cand.op, i);
        }
        Target::FreshPair {
            partner,
            partner_start,
        } => {
            let i = binding.new_instance(cand.module);
            binding.bind(cand.op, i);
            timing.set(partner, t);
            locked.lock(partner, partner_start);
            if !saved.partner_was_locked {
                ledger.reserve(partner_start, t.delay, t.power);
            }
            binding.bind(partner, i);
        }
    }
}

fn undo(
    cand: &Decision,
    binding: &mut Binding,
    locked: &mut LockedStarts,
    timing: &mut TimingMap,
    ledger: &mut PowerLedger,
    saved: &Saved,
) {
    binding.unbind(cand.op);
    if !saved.op_was_locked {
        locked.unlock(cand.op);
    }
    timing.set(cand.op, saved.op_timing);
    if let Some((partner, t)) = saved.partner_timing {
        binding.unbind(partner);
        if !saved.partner_was_locked {
            locked.unlock(partner);
        }
        timing.set(partner, t);
    }
    for (start, values) in &saved.ledger_rows {
        ledger.restore(*start, values);
    }
    // A fresh instance allocated for this decision stays empty and is
    // pruned at the end; ids of other instances are unaffected.
}

/// Chooses initial per-operation module estimates: minimum area (also the
/// low-power choice in realistic libraries — precomputed once per graph
/// as [`CompiledGraph`]'s seed), then upgrades operations to their
/// fastest module along infeasible critical paths until a power-feasible
/// schedule exists.
fn bootstrap(
    graph: &Cdfg,
    library: &ModuleLibrary,
    constraints: &SynthesisConstraints,
    budget: &pchls_sched::PowerBudget,
    reach: &Reachability,
    compiled: &CompiledGraph,
) -> Result<(TimingMap, Vec<ModuleId>), SynthesisError> {
    let mut modules: Vec<ModuleId> = compiled.seed_modules().to_vec();
    // The seed timing equals the compiled min-area timing map (same
    // per-node MinArea selection), so start from a clone instead of
    // rebuilding it on every constraint point.
    let mut timing = compiled.min_area_timing().clone();

    let peak_power = constraints.max_power();
    loop {
        let err = match pchls_sched::pasap_budget(graph, &timing, budget, constraints.latency) {
            Ok(_) => return Ok((timing, modules)),
            Err(e) => e,
        };
        // Power alone can never be fixed by a faster (more power-hungry)
        // module.
        if matches!(err, ScheduleError::OpExceedsBudget { .. }) {
            return Err(SynthesisError::Infeasible { cause: err });
        }
        let failing = match err {
            ScheduleError::Infeasible { node, .. } => Some(node),
            _ => None,
        };
        // Upgradeable ops: a strictly faster module exists whose power
        // still fits the budget.
        let upgrade_of = |v: NodeId| -> Option<ModuleId> {
            let cur = timing.delay(v);
            library
                .candidates(graph.node(v).kind())
                .filter(|&m| {
                    library.module(m).latency() < cur
                        && library.module(m).power() <= peak_power + 1e-9
                })
                .min_by_key(|&m| (library.module(m).latency(), library.module(m).area()))
        };
        let mut upgradeable: Vec<NodeId> = graph
            .node_ids()
            .filter(|&v| upgrade_of(v).is_some())
            .collect();
        if let Some(f) = failing {
            // Prefer the failing op itself or one of its ancestors — the
            // delay on the path into `f` is what broke the horizon.
            let on_path: Vec<NodeId> = upgradeable
                .iter()
                .copied()
                .filter(|&v| v == f || reach.reaches(v, f))
                .collect();
            if !on_path.is_empty() {
                upgradeable = on_path;
            }
        }
        // Upgrade the slowest candidate first (largest delay win).
        let Some(&pick) = upgradeable.iter().max_by_key(|&&v| {
            timing.delay(v) - library.module(upgrade_of(v).expect("filtered")).latency()
        }) else {
            return Err(SynthesisError::Infeasible { cause: err });
        };
        let m = upgrade_of(pick).expect("pick is upgradeable");
        modules[pick.index()] = m;
        timing.set(
            pick,
            OpTiming {
                delay: library.module(m).latency(),
                power: library.module(m).power(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    fn synth_opts(
        graph: &Cdfg,
        latency: u32,
        power: f64,
        options: &SynthesisOptions,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(graph);
        synthesize_session(
            &engine,
            &compiled,
            &SynthesisConstraints::new(latency, power),
            options,
            None,
        )
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
            assert!(d.peak_power <= p + 1e-9);
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
