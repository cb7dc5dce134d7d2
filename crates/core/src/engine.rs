//! The session-oriented engine API: compile-once graphs, reusable
//! synthesis sessions, batched sweeps.
//!
//! The paper's exploration workflow (its Figure 2) synthesizes the
//! *same* CDFG under dozens of `(T, P<)` constraint points. Library
//! indexes, reachability bitsets and bootstrap module estimates do not
//! depend on the point, so this module splits those costs by lifetime:
//!
//! * [`Engine::new`] owns the **per-library** artifacts — kind-bucketed
//!   module candidate lists and the kind-compatibility matrix — computed
//!   once for the library's lifetime.
//! * [`Engine::compile`] produces a [`CompiledGraph`] owning the
//!   **per-graph** artifacts — the transitive-closure
//!   [`Reachability`] bitsets (via the shared
//!   [`AnalysisCache`] handle), min-area bootstrap module estimates,
//!   fastest/min-area timing maps and the ASAP/ALAP schedule skeletons —
//!   computed once per graph.
//! * [`Engine::session`] pairs the two into a [`Session`] whose
//!   [`synthesize`](Session::synthesize), [`sweep`](Session::sweep) and
//!   [`batch`](Session::batch) calls share every compiled artifact
//!   across thousands of constraint points with **no per-point
//!   recompute** — and produce output byte-identical to the serial
//!   reference sweeps (enforced by `tests/engine_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::benchmarks::hal;
//! use pchls_core::{Engine, SweepSpec, SynthesisConstraints, SynthesisOptions};
//! use pchls_fulib::paper_library;
//!
//! # fn main() -> Result<(), pchls_core::SynthesisError> {
//! let engine = Engine::new(paper_library());
//! let compiled = engine.compile(&hal());
//! let session = engine.session(&compiled);
//!
//! // One point…
//! let opts = SynthesisOptions::default();
//! let design = session.synthesize(SynthesisConstraints::new(17, 25.0), &opts)?;
//! assert!(design.latency <= 17);
//!
//! // …or a whole constraint sweep, reusing the same compiled graph.
//! let sweep = session.sweep(&SweepSpec::power(17, vec![10.0, 25.0, 60.0]), &opts);
//! assert_eq!(sweep.points.len(), 3);
//! # Ok(())
//! # }
//! ```

use std::ops::ControlFlow;

use pchls_cdfg::{optimize, AnalysisCache, Cdfg, GraphDelta, OpKind, OptimizeStats, Reachability};
use pchls_fulib::{ModuleId, ModuleLibrary, SelectionPolicy};
use pchls_sched::{alap, asap, PowerBudget, PowerProfile, Schedule, TimingMap};

use crate::baseline::{trimmed_allocation_bind, two_step_bind, unconstrained_bind, BaselineDesign};
use crate::constraints::SynthesisConstraints;
use crate::design::SynthesizedDesign;
use crate::error::SynthesisError;
use crate::explore::{envelope, latency_order, power_order, run_point, SweepAxis, SweepPoint};
use crate::options::SynthesisOptions;
use crate::refine::{portfolio_session, refined_session};
use crate::replay::{ReplayState, SynthesisMemo};
use crate::synthesis::{synthesize_session, synthesize_session_mode, KernelMode};

/// Whether some library module implements both kinds, indexed by
/// [`OpKind::index`] on both axes.
pub(crate) type KindCompat = [[bool; OpKind::ALL.len()]; OpKind::ALL.len()];

/// The per-library half of the synthesis state: owns the immutable
/// module library plus every index derived from it alone.
///
/// Construct once, [`compile`](Engine::compile) each graph once, then
/// open [`Session`]s to synthesize under as many constraint points as
/// needed.
#[derive(Debug, Clone)]
pub struct Engine {
    library: ModuleLibrary,
    /// Per-kind module candidate lists, indexed by [`OpKind::index`].
    kind_modules: Vec<Vec<ModuleId>>,
    /// `kind_compat[a][b]`: some module implements both kinds.
    kind_compat: KindCompat,
}

impl Engine {
    /// Builds the per-library indexes (kind buckets, kind-compatibility
    /// matrix) and takes ownership of `library`.
    #[must_use]
    pub fn new(library: ModuleLibrary) -> Engine {
        let kind_modules: Vec<Vec<ModuleId>> = OpKind::ALL
            .iter()
            .map(|&k| library.candidates(k).collect())
            .collect();
        let mut kind_compat = [[false; OpKind::ALL.len()]; OpKind::ALL.len()];
        for (a, row) in kind_modules.iter().enumerate() {
            for (b, &kb) in OpKind::ALL.iter().enumerate() {
                kind_compat[a][b] = row.iter().any(|&m| library.module(m).implements(kb));
            }
        }
        Engine {
            library,
            kind_modules,
            kind_compat,
        }
    }

    /// The module library this engine serves.
    #[must_use]
    pub fn library(&self) -> &ModuleLibrary {
        &self.library
    }

    pub(crate) fn kind_modules(&self) -> &[Vec<ModuleId>] {
        &self.kind_modules
    }

    pub(crate) fn kind_compat(&self) -> &KindCompat {
        &self.kind_compat
    }

    /// Compiles `graph` into the per-graph artifacts every subsequent
    /// synthesis call reuses: reachability bitsets, bootstrap module
    /// estimates, timing maps and the ASAP/ALAP skeletons.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Uncovered`] when the library implements none of
    /// the modules for some operation kind in the graph.
    pub fn try_compile(&self, graph: &Cdfg) -> Result<CompiledGraph, SynthesisError> {
        let _span = pchls_obs::span!("engine.compile", "ops" => graph.len());
        for node in graph.nodes() {
            if self.kind_modules[node.kind().index()].is_empty() {
                return Err(SynthesisError::Uncovered { kind: node.kind() });
            }
        }
        let seed_modules: Vec<ModuleId> = graph
            .nodes()
            .iter()
            .map(|nd| {
                self.library
                    .select(nd.kind(), SelectionPolicy::MinArea)
                    .expect("coverage checked above")
            })
            .collect();
        let fastest_timing = TimingMap::from_policy(graph, &self.library, SelectionPolicy::Fastest);
        let min_area_timing =
            TimingMap::from_policy(graph, &self.library, SelectionPolicy::MinArea);
        let asap_fastest = asap(graph, &fastest_timing);
        let min_latency = asap_fastest.latency(&fastest_timing);
        let asap_peak = PowerProfile::of(&asap_fastest, &fastest_timing).peak();
        let analyses = AnalysisCache::new();
        // Warm the closure eagerly: compile is the one place allowed to
        // be slow, sessions must only read.
        let _ = analyses.reachability(graph);
        // Kind-major node masks: row `k` has bit `j` set iff some module
        // implements both kind `k` and node `j`'s kind. ANDed against
        // the kernel's unbound bitset, one row turns "every compatible
        // pair partner of an op" into a word walk.
        let mask_words = graph.len().div_ceil(64);
        let mut compat_masks = vec![0u64; OpKind::ALL.len() * mask_words];
        for (j, node) in graph.nodes().iter().enumerate() {
            let kj = node.kind().index();
            for k in 0..OpKind::ALL.len() {
                if self.kind_compat[k][kj] {
                    compat_masks[k * mask_words + j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        Ok(CompiledGraph {
            graph: graph.clone(),
            analyses,
            seed_modules,
            fastest_timing,
            min_area_timing,
            asap_fastest,
            // Lazy: the kernel never reads the ALAP skeleton, so
            // compiles that only synthesize skip the pass.
            alap_fastest: std::sync::OnceLock::new(),
            min_latency,
            asap_peak,
            compat_masks,
            mask_words,
            optimize_stats: None,
        })
    }

    /// [`try_compile`](Engine::try_compile), panicking on a library
    /// coverage gap.
    ///
    /// # Panics
    ///
    /// Panics if the library does not cover every operation kind in the
    /// graph.
    #[must_use]
    pub fn compile(&self, graph: &Cdfg) -> CompiledGraph {
        self.try_compile(graph).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`compile`](Engine::compile) wrapped in an [`Arc`](std::sync::Arc),
    /// for sharing one compiled graph across threads — worker pools,
    /// compile caches, anything that outlives a single borrow.
    /// [`CompiledGraph`] is `Send + Sync`, so the clones are free and
    /// every thread reads the same warmed artifacts.
    ///
    /// # Example
    ///
    /// ```
    /// use pchls_cdfg::benchmarks::hal;
    /// use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
    /// use pchls_fulib::paper_library;
    ///
    /// let engine = Engine::new(paper_library());
    /// let compiled = engine.compile_arc(&hal());
    /// let opts = SynthesisOptions::default();
    ///
    /// // Two threads synthesize different points over ONE compile.
    /// std::thread::scope(|s| {
    ///     for latency in [17u32, 10] {
    ///         let compiled = std::sync::Arc::clone(&compiled);
    ///         let (engine, opts) = (&engine, &opts);
    ///         s.spawn(move || {
    ///             let session = engine.session(&compiled);
    ///             let d = session
    ///                 .synthesize(SynthesisConstraints::new(latency, 40.0), opts)
    ///                 .expect("feasible");
    ///             assert!(d.latency <= latency);
    ///         });
    ///     }
    /// });
    /// ```
    ///
    /// # Panics
    ///
    /// As [`compile`](Engine::compile): panics if the library does not
    /// cover every operation kind in the graph.
    #[must_use]
    pub fn compile_arc(&self, graph: &Cdfg) -> std::sync::Arc<CompiledGraph> {
        std::sync::Arc::new(self.compile(graph))
    }

    /// Runs the CDFG optimizer (CSE + dead-code elimination) first, then
    /// compiles the cleaned graph; the optimizer report is kept on the
    /// compiled graph ([`CompiledGraph::optimize_stats`]).
    ///
    /// # Errors
    ///
    /// As [`try_compile`](Engine::try_compile).
    pub fn compile_optimized(&self, graph: &Cdfg) -> Result<CompiledGraph, SynthesisError> {
        let (optimized, stats) = optimize(graph);
        let mut compiled = self.try_compile(&optimized)?;
        compiled.optimize_stats = Some(stats);
        Ok(compiled)
    }

    /// Opens a synthesis session over a compiled graph. Sessions are
    /// cheap handles; open as many as needed.
    #[must_use]
    pub fn session<'e>(&'e self, compiled: &'e CompiledGraph) -> Session<'e> {
        Session {
            engine: self,
            compiled,
        }
    }

    /// Runs many sweeps at once, fanning **all grid points of all jobs**
    /// out across the worker pool — the whole-figure entry point (all
    /// six Figure 2 curves in one call). Flattening the `jobs × grid`
    /// rectangle into one work list keeps every core busy even while the
    /// last expensive points of one curve are still running, which a
    /// job-at-a-time loop over [`Session::sweep`] cannot do.
    ///
    /// Each returned sweep is byte-identical to [`Session::sweep`] on
    /// the same `(compiled, spec)` pair.
    #[must_use]
    pub fn sweep_batch(
        &self,
        jobs: &[SweepJob<'_>],
        options: &SynthesisOptions,
    ) -> Vec<SweepResult> {
        let flat: Vec<(usize, usize)> = jobs
            .iter()
            .enumerate()
            .flat_map(|(j, job)| (0..job.spec.len()).map(move |i| (j, i)))
            .collect();
        let mut raw = pchls_par::par_map(&flat, |&(j, i)| {
            let job = &jobs[j];
            run_point(self, job.compiled, job.spec.constraints(i), options)
        });
        jobs.iter()
            .map(|job| {
                let rest = raw.split_off(job.spec.len());
                let points = std::mem::replace(&mut raw, rest);
                finish_sweep(job.compiled, &job.spec, points)
            })
            .collect()
    }
}

/// The per-graph half of the synthesis state: an owned copy of the
/// graph plus every artifact derived from `(graph, library)` alone —
/// shared, read-only, across all constraint points of all sessions.
#[derive(Debug)]
pub struct CompiledGraph {
    graph: Cdfg,
    /// Shared analysis handles ([`Reachability`] et al.), warmed at
    /// compile time.
    analyses: AnalysisCache,
    /// Min-area module estimate per operation — the bootstrap seed.
    seed_modules: Vec<ModuleId>,
    fastest_timing: TimingMap,
    min_area_timing: TimingMap,
    asap_fastest: Schedule,
    /// ALAP at the minimum latency, computed on first request (the
    /// synthesis kernel never reads it).
    alap_fastest: std::sync::OnceLock<Schedule>,
    min_latency: u32,
    asap_peak: f64,
    /// Kind-major compatibility masks over the graph's nodes (row `k`,
    /// bit `j`: some module implements both kind `k` and node `j`'s
    /// kind), in the packed `u64` layout of
    /// [`Reachability::descendant_words`] — the kernel ANDs a row
    /// against its unbound bitset to enumerate pair-merge partners.
    compat_masks: Vec<u64>,
    /// Words per `compat_masks` row.
    mask_words: usize,
    optimize_stats: Option<OptimizeStats>,
}

impl CompiledGraph {
    /// The compiled graph.
    #[must_use]
    pub fn graph(&self) -> &Cdfg {
        &self.graph
    }

    /// The graph's name (benchmark label on sweep points).
    #[must_use]
    pub fn name(&self) -> &str {
        self.graph.name()
    }

    /// The graph's transitive closure, computed once at compile time.
    #[must_use]
    pub fn reachability(&self) -> &Reachability {
        self.analyses.reachability(&self.graph)
    }

    pub(crate) fn seed_modules(&self) -> &[ModuleId] {
        &self.seed_modules
    }

    /// The node-compatibility mask row of `kind` (see `compat_masks`).
    pub(crate) fn compat_row(&self, kind: OpKind) -> &[u64] {
        let k = kind.index();
        &self.compat_masks[k * self.mask_words..(k + 1) * self.mask_words]
    }

    /// Per-operation timing under the fastest-module policy.
    #[must_use]
    pub fn fastest_timing(&self) -> &TimingMap {
        &self.fastest_timing
    }

    /// Per-operation timing under the min-area-module policy.
    #[must_use]
    pub fn min_area_timing(&self) -> &TimingMap {
        &self.min_area_timing
    }

    /// The power-oblivious ASAP schedule skeleton under fastest modules.
    #[must_use]
    pub fn asap_schedule(&self) -> &Schedule {
        &self.asap_fastest
    }

    /// The ALAP skeleton at the minimum achievable latency, computed on
    /// first request and shared afterwards.
    #[must_use]
    pub fn alap_schedule(&self) -> &Schedule {
        self.alap_fastest.get_or_init(|| {
            alap(&self.graph, &self.fastest_timing, self.min_latency)
                .expect("ALAP at the ASAP latency is always feasible")
        })
    }

    /// The minimum achievable latency (fastest modules, no power bound):
    /// constraints below this are infeasible for every power budget.
    #[must_use]
    pub fn min_latency(&self) -> u32 {
        self.min_latency
    }

    /// Peak per-cycle power of the power-oblivious fastest ASAP design —
    /// above this bound the power constraint stops binding.
    #[must_use]
    pub fn asap_peak_power(&self) -> f64 {
        self.asap_peak
    }

    /// The optimizer report, when the graph was compiled through
    /// [`Engine::compile_optimized`].
    #[must_use]
    pub fn optimize_stats(&self) -> Option<&OptimizeStats> {
        self.optimize_stats.as_ref()
    }
}

/// One iteration snapshot handed to a progress hook (see
/// [`Session::synthesize_with_progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Progress {
    /// Operations bound so far.
    pub bound_ops: usize,
    /// Total operations in the graph.
    pub total_ops: usize,
    /// Paper-style backtracks taken so far.
    pub backtracks: usize,
    /// Candidate decisions rejected so far.
    pub rejected_candidates: usize,
}

/// The outcome of [`Session::resynthesize`]: the design plus which
/// path produced it.
#[derive(Debug, Clone)]
pub struct Resynthesis {
    /// The synthesized design — byte-identical to a cold synthesis of
    /// the edited graph either way.
    pub design: SynthesizedDesign,
    /// Whether the incremental replay path ran (`false`: full-recompute
    /// fallback).
    pub incremental: bool,
    /// The edit cone's size, as reported by the delta.
    pub cone_size: usize,
    /// Kernel iterations that were gated against the recorded memo
    /// (zero on the fallback path).
    pub gated_iterations: usize,
    /// Gated iterations that exhausted the recorded trust bound and
    /// re-enumerated cold before committing.
    pub extensions: usize,
    /// Whether the replay abandoned the memo mid-run because the edited
    /// run's commit order diverged from the recording (the rest of the
    /// run used the cold path, bounding cost near a full recompute).
    pub bailed: bool,
}

/// A synthesis session: an [`Engine`] paired with one of its
/// [`CompiledGraph`]s. Every call shares the compiled artifacts; none
/// recomputes reachability, library indexes or bootstrap seeds.
#[derive(Debug, Clone, Copy)]
pub struct Session<'e> {
    engine: &'e Engine,
    compiled: &'e CompiledGraph,
}

impl<'e> Session<'e> {
    /// The engine behind this session.
    #[must_use]
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The compiled graph behind this session.
    #[must_use]
    pub fn compiled(&self) -> &'e CompiledGraph {
        self.compiled
    }

    /// Synthesizes one design under `constraints` — the paper's combined
    /// scheduling/allocation/binding loop, minus all per-graph setup.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Infeasible`] when no power-feasible schedule
    /// fits the latency bound — the `(T, P<)` point is outside the
    /// feasible region; [`SynthesisError::Schedule`] /
    /// [`SynthesisError::Bind`] on internal validation failures.
    pub fn synthesize(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        synthesize_session(self.engine, self.compiled, &constraints, options, None)
    }

    /// [`synthesize`](Session::synthesize) with a progress/cancel hook:
    /// `hook` is called once per greedy iteration; returning
    /// [`ControlFlow::Break`] aborts with [`SynthesisError::Cancelled`].
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Session::synthesize), plus
    /// [`SynthesisError::Cancelled`] when the hook breaks.
    pub fn synthesize_with_progress(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
        hook: &mut dyn FnMut(Progress) -> ControlFlow<()>,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        synthesize_session(
            self.engine,
            self.compiled,
            &constraints,
            options,
            Some(hook),
        )
    }

    /// [`synthesize`](Session::synthesize) while recording a
    /// [`SynthesisMemo`]: a per-iteration observation journal of the
    /// kernel run, replayable against edited graphs via
    /// [`resynthesize`](Session::resynthesize). The design returned is
    /// byte-identical to the plain [`synthesize`](Session::synthesize)
    /// call — recording only observes.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Session::synthesize).
    pub fn synthesize_recorded(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> Result<(SynthesizedDesign, SynthesisMemo), SynthesisError> {
        let mut memo = SynthesisMemo::empty(constraints.clone(), *options);
        let design = synthesize_session_mode(
            self.engine,
            self.compiled,
            &constraints,
            options,
            None,
            KernelMode::Record(&mut memo),
        )?;
        Ok((design, memo))
    }

    /// Re-synthesizes after a graph edit, seeding the kernel from a
    /// recorded base run: this session must hold the **edited** compiled
    /// graph (a cold [`Engine::try_compile`] of it), `memo` a recording
    /// of the **base** graph under the constraints and options that are
    /// reused here, and `delta` the structural diff between the two.
    ///
    /// Small edit cones replay incrementally — quiet operations skip
    /// candidate enumeration and trust the recorded scores, while every
    /// attempt still executes for real — and the output is
    /// byte-identical to a cold synthesis of the edited graph (designs,
    /// decision traces and effort counters alike; asserted by the
    /// differential tests). Cones above half the graph, degenerate
    /// deltas and shape mismatches fall back to a full cold run. Use
    /// [`resynthesize_with_limit`](Session::resynthesize_with_limit) to
    /// tune the cutoff.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Session::synthesize), against the edited graph.
    pub fn resynthesize(
        &self,
        memo: &SynthesisMemo,
        delta: &GraphDelta,
    ) -> Result<Resynthesis, SynthesisError> {
        self.resynthesize_with_limit(memo, delta, self.compiled.graph().len() / 2)
    }

    /// [`resynthesize`](Session::resynthesize) with an explicit maximum
    /// edit-cone size for the incremental path; larger cones run the
    /// full cold kernel (above roughly half the graph the bookkeeping
    /// outweighs the skipped enumeration).
    ///
    /// # Errors
    ///
    /// As [`resynthesize`](Session::resynthesize).
    pub fn resynthesize_with_limit(
        &self,
        memo: &SynthesisMemo,
        delta: &GraphDelta,
        max_cone: usize,
    ) -> Result<Resynthesis, SynthesisError> {
        let cone_size = delta.cone_size();
        let incremental = !delta.degenerate()
            && delta.base_len() == memo.n
            && delta.edited_len() == self.compiled.graph().len()
            && memo.lib_len == self.engine.library().len()
            && !memo.iters.is_empty()
            && cone_size <= max_cone;
        let _span = pchls_obs::span!(
            "kernel.patch",
            "cone" => cone_size,
            "mode" => if incremental { "incremental" } else { "full" }
        );
        let (design, gated_iterations, extensions, bailed) = if incremental {
            pchls_obs::global()
                .counter("pchls_session_incremental_hits_total")
                .inc();
            let mut rs = ReplayState::new(memo, delta);
            let design = synthesize_session_mode(
                self.engine,
                self.compiled,
                &memo.constraints,
                &memo.options,
                None,
                KernelMode::Replay(&mut rs),
            )?;
            (design, rs.gated_iterations, rs.extensions, rs.bailed)
        } else {
            pchls_obs::global()
                .counter("pchls_session_incremental_fallbacks_total")
                .inc();
            let design = synthesize_session(
                self.engine,
                self.compiled,
                &memo.constraints,
                &memo.options,
                None,
            )?;
            (design, 0, 0, false)
        };
        Ok(Resynthesis {
            design,
            incremental,
            cone_size,
            gated_iterations,
            extensions,
            bailed,
        })
    }

    /// The self-tightening refinement loop over this session's shared
    /// artifacts: re-synthesizes with the power bound ratcheted just
    /// below each achieved peak and keeps the smallest design, never
    /// larger than [`synthesize`](Session::synthesize)'s.
    ///
    /// # Errors
    ///
    /// As [`synthesize`](Session::synthesize).
    pub fn synthesize_refined(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        refined_session(self.engine, self.compiled, &constraints, options)
    }

    /// The portfolio entry point over this session's shared artifacts:
    /// the smallest valid design of the refined loop and the
    /// allocation-trimming baseline under both module policies.
    ///
    /// # Errors
    ///
    /// Returns an error only when every portfolio member fails.
    pub fn synthesize_portfolio(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        portfolio_session(self.engine, self.compiled, &constraints, options)
    }

    /// Sweeps one constraint axis, reusing the compiled graph for every
    /// grid point: raw points fan out over the worker pool, the
    /// monotone-envelope pass runs sequentially — output byte-identical
    /// to the serial references
    /// [`power_sweep_serial`](crate::power_sweep_serial) /
    /// [`latency_sweep_serial`](crate::latency_sweep_serial).
    #[must_use]
    pub fn sweep(&self, spec: &SweepSpec, options: &SynthesisOptions) -> SweepResult {
        let raw = pchls_par::par_map_indices(spec.len(), |i| {
            run_point(self.engine, self.compiled, spec.constraints(i), options)
        });
        finish_sweep(self.compiled, spec, raw)
    }

    /// [`sweep`](Session::sweep) with known raw points supplied instead
    /// of recomputed — the resume path for persistent result stores.
    ///
    /// `cached[i]`, when `Some`, must be the **raw** synthesis outcome
    /// of grid point `i` (what this method returns in its second
    /// component), *not* a point taken from an enveloped [`SweepResult`]
    /// — the monotone-envelope pass is rerun here over the merged raw
    /// grid, so feeding it enveloped points would double-apply carries.
    /// Only the `None` entries are synthesized, fanned out over the
    /// worker pool. Returns the enveloped result (byte-identical to a
    /// full [`sweep`](Session::sweep) of the same grid, by determinism)
    /// plus the `(grid index, raw point)` pairs computed fresh this
    /// call, for the caller to persist.
    ///
    /// # Panics
    ///
    /// Panics when `cached.len() != spec.len()`.
    #[must_use]
    pub fn sweep_resumable(
        &self,
        spec: &SweepSpec,
        options: &SynthesisOptions,
        cached: &[Option<SweepPoint>],
    ) -> (SweepResult, Vec<(usize, SweepPoint)>) {
        assert_eq!(
            cached.len(),
            spec.len(),
            "cached grid must align with the sweep spec"
        );
        let missing: Vec<usize> = (0..spec.len()).filter(|&i| cached[i].is_none()).collect();
        let computed = pchls_par::par_map(&missing, |&i| {
            run_point(self.engine, self.compiled, spec.constraints(i), options)
        });
        let fresh: Vec<(usize, SweepPoint)> = missing.into_iter().zip(computed).collect();
        let mut raw: Vec<SweepPoint> = Vec::with_capacity(spec.len());
        let mut fresh_iter = fresh.iter().peekable();
        for (i, slot) in cached.iter().enumerate() {
            match slot {
                Some(point) => raw.push(point.clone()),
                None => {
                    let (j, point) = fresh_iter.next().expect("every missing index was computed");
                    debug_assert_eq!(*j, i);
                    raw.push(point.clone());
                }
            }
        }
        (finish_sweep(self.compiled, spec, raw), fresh)
    }

    /// Runs a batch of independent synthesis requests, fanned out over
    /// the worker pool while sharing every compiled artifact. Results
    /// come back in request order; each equals the corresponding
    /// one-at-a-time [`synthesize`](Session::synthesize) call exactly.
    #[must_use]
    pub fn batch(
        &self,
        requests: impl IntoIterator<Item = SynthesisRequest>,
    ) -> Vec<SynthesisResult> {
        let requests: Vec<SynthesisRequest> = requests.into_iter().collect();
        let outcomes = pchls_par::par_map(&requests, |r| {
            synthesize_session(self.engine, self.compiled, &r.constraints, &r.options, None)
        });
        requests
            .into_iter()
            .zip(outcomes)
            .map(|(request, outcome)| SynthesisResult { request, outcome })
            .collect()
    }

    /// A sensible power grid for sweeping this graph, from the cached
    /// compile-time skeletons (equals
    /// [`auto_power_grid`](crate::auto_power_grid)).
    #[must_use]
    pub fn auto_power_grid(&self, steps: usize) -> Vec<f64> {
        let lo = self.compiled.fastest_timing.max_single_op_power();
        let hi = self.compiled.asap_peak * 1.1;
        let steps = steps.max(2);
        (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect()
    }

    /// The two-step baseline (paper refs [1, 2]) on this session's
    /// graph and library.
    ///
    /// # Errors
    ///
    /// As [`two_step_bind`].
    pub fn two_step(
        &self,
        constraints: SynthesisConstraints,
        policy: SelectionPolicy,
    ) -> Result<BaselineDesign, SynthesisError> {
        two_step_bind(
            &self.compiled.graph,
            &self.engine.library,
            constraints,
            policy,
        )
    }

    /// The power-oblivious ASAP baseline on this session's graph and
    /// library.
    ///
    /// # Errors
    ///
    /// As [`unconstrained_bind`].
    pub fn unconstrained(
        &self,
        latency: u32,
        policy: SelectionPolicy,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        unconstrained_bind(&self.compiled.graph, &self.engine.library, latency, policy)
    }

    /// The allocation-trimming baseline on this session's graph and
    /// library.
    ///
    /// # Errors
    ///
    /// As [`trimmed_allocation_bind`].
    pub fn trimmed_allocation(
        &self,
        constraints: SynthesisConstraints,
        policy: SelectionPolicy,
    ) -> Result<SynthesizedDesign, SynthesisError> {
        trimmed_allocation_bind(
            &self.compiled.graph,
            &self.engine.library,
            constraints,
            policy,
        )
    }

    /// The force-directed scheduling baseline (Paulin & Knight) under
    /// `policy`-selected modules, reusing the compiled transitive
    /// closure ([`force_directed_with`]) instead of rebuilding it per
    /// call like the free [`force_directed`] does.
    ///
    /// [`force_directed`]: pchls_sched::force_directed
    /// [`force_directed_with`]: pchls_sched::force_directed_with
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Schedule`] when the critical path misses
    /// `latency`.
    pub fn force_directed(
        &self,
        latency: u32,
        policy: SelectionPolicy,
    ) -> Result<Schedule, SynthesisError> {
        let graph = self.compiled.graph();
        let library = self.engine.library();
        let modules: Vec<ModuleId> = graph
            .nodes()
            .iter()
            .map(|n| {
                library
                    .select(n.kind(), policy)
                    .expect("coverage checked at compile")
            })
            .collect();
        pchls_sched::force_directed_with(
            graph,
            library,
            &modules,
            latency,
            self.compiled.reachability(),
        )
        .map_err(SynthesisError::Schedule)
    }
}

/// Envelope pass + labeling shared by [`Session::sweep`] and
/// [`Engine::sweep_batch`].
fn finish_sweep(compiled: &CompiledGraph, spec: &SweepSpec, raw: Vec<SweepPoint>) -> SweepResult {
    let points = match spec {
        SweepSpec::Power { powers, .. } => envelope(raw, &power_order(powers), SweepAxis::Power),
        SweepSpec::Latency { latencies, .. } => {
            envelope(raw, &latency_order(latencies), SweepAxis::Latency)
        }
        // A design feasible at scale `s` stays feasible at every larger
        // scale (the envelope only grows pointwise), so the monotone
        // carry applies along ascending scales; the carried label is
        // the point's own peak bound (`SweepAxis::Power`).
        SweepSpec::BudgetScale { scales, .. } => {
            envelope(raw, &power_order(scales), SweepAxis::Power)
        }
    };
    SweepResult {
        benchmark: compiled.name().to_owned(),
        points,
    }
}

/// One constraint-axis sweep over a compiled graph.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Fixed latency, varying power bounds (one Figure 2 curve).
    Power {
        /// Latency constraint `T` for every point.
        latency: u32,
        /// Power bounds of the grid.
        powers: Vec<f64>,
    },
    /// Fixed power bound, varying latencies (the orthogonal cut).
    Latency {
        /// Power constraint `P<` for every point.
        power: f64,
        /// Latency bounds of the grid.
        latencies: Vec<u32>,
    },
    /// Fixed latency, one budget *envelope* swept over scale factors:
    /// grid point `i` synthesizes under `budget.scaled(scales[i])`. The
    /// envelope generalization of a power sweep — the x-axis is "how
    /// much of the envelope the supply can actually deliver" (battery
    /// ageing, derating), not a scalar bound.
    BudgetScale {
        /// Latency constraint `T` for every point.
        latency: u32,
        /// The envelope being scaled.
        budget: PowerBudget,
        /// Scale factors of the grid (each ≥ 0).
        scales: Vec<f64>,
    },
}

impl SweepSpec {
    /// A power sweep at fixed `latency`.
    #[must_use]
    pub fn power(latency: u32, powers: Vec<f64>) -> SweepSpec {
        SweepSpec::Power { latency, powers }
    }

    /// A latency sweep at fixed `power`.
    #[must_use]
    pub fn latency(power: f64, latencies: Vec<u32>) -> SweepSpec {
        SweepSpec::Latency { power, latencies }
    }

    /// An envelope-scale sweep at fixed `latency`: point `i` runs under
    /// `budget.scaled(scales[i])`.
    #[must_use]
    pub fn budget_scale(latency: u32, budget: PowerBudget, scales: Vec<f64>) -> SweepSpec {
        SweepSpec::BudgetScale {
            latency,
            budget,
            scales,
        }
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SweepSpec::Power { powers, .. } => powers.len(),
            SweepSpec::Latency { latencies, .. } => latencies.len(),
            SweepSpec::BudgetScale { scales, .. } => scales.len(),
        }
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The constraints of grid point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn constraints(&self, i: usize) -> SynthesisConstraints {
        match self {
            SweepSpec::Power { latency, powers } => SynthesisConstraints::new(*latency, powers[i]),
            SweepSpec::Latency { power, latencies } => {
                SynthesisConstraints::new(latencies[i], *power)
            }
            SweepSpec::BudgetScale {
                latency,
                budget,
                scales,
            } => SynthesisConstraints::new(*latency, budget.scaled(scales[i])),
        }
    }
}

/// One sweep's output: the enveloped points, labelled with the
/// benchmark they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Name of the swept graph.
    pub benchmark: String,
    /// One enveloped point per grid entry, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Consumes the result, yielding just the points.
    #[must_use]
    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }
}

/// One sweep job for [`Engine::sweep_batch`]: a compiled graph plus the
/// constraint grid to sweep it over.
#[derive(Debug, Clone)]
pub struct SweepJob<'a> {
    /// The graph to sweep (compile once, reference from many jobs).
    pub compiled: &'a CompiledGraph,
    /// The constraint grid.
    pub spec: SweepSpec,
}

/// One point of a [`Session::batch`] request list.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    /// The constraint point.
    pub constraints: SynthesisConstraints,
    /// Options for this request (defaults to the paper configuration).
    pub options: SynthesisOptions,
}

impl SynthesisRequest {
    /// A request at `constraints` with the default options.
    #[must_use]
    pub fn new(constraints: SynthesisConstraints) -> SynthesisRequest {
        SynthesisRequest {
            constraints,
            options: SynthesisOptions::default(),
        }
    }

    /// Replaces the options.
    #[must_use]
    pub fn with_options(mut self, options: SynthesisOptions) -> SynthesisRequest {
        self.options = options;
        self
    }
}

/// One outcome of a [`Session::batch`] call.
#[derive(Debug)]
pub struct SynthesisResult {
    /// The request this result answers.
    pub request: SynthesisRequest,
    /// The synthesized design, or why the point failed.
    pub outcome: Result<SynthesizedDesign, SynthesisError>,
}

impl SynthesisResult {
    /// Whether the point was feasible.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Summarizes the outcome as a serializable [`SweepPoint`]
    /// (`benchmark` labels the row — typically
    /// [`CompiledGraph::name`]).
    #[must_use]
    pub fn to_point(&self, benchmark: &str) -> SweepPoint {
        let c = &self.request.constraints;
        match &self.outcome {
            Ok(d) => SweepPoint {
                benchmark: benchmark.to_owned(),
                latency_bound: c.latency,
                power_bound: c.max_power(),
                area: Some(d.area),
                latency: Some(d.latency),
                peak_power: Some(d.peak_power),
                units: Some(d.binding.instances().len()),
            },
            Err(_) => SweepPoint {
                benchmark: benchmark.to_owned(),
                latency_bound: c.latency,
                power_bound: c.max_power(),
                area: None,
                latency: None,
                peak_power: None,
                units: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    #[test]
    fn engine_and_compiled_graph_are_shareable_across_threads() {
        // The service layer (`pchls-serve`) hands `Arc<CompiledGraph>`s
        // to a worker pool; these bounds are its load-bearing contract.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<CompiledGraph>();
        assert_send_sync::<std::sync::Arc<CompiledGraph>>();

        let engine = Engine::new(paper_library());
        let compiled = engine.compile_arc(&benchmarks::hal());
        let opts = SynthesisOptions::default();
        let single = engine
            .session(&compiled)
            .synthesize(SynthesisConstraints::new(17, 25.0), &opts)
            .unwrap();
        let from_thread = std::thread::scope(|s| {
            let compiled = std::sync::Arc::clone(&compiled);
            let (engine, opts) = (&engine, &opts);
            s.spawn(move || {
                engine
                    .session(&compiled)
                    .synthesize(SynthesisConstraints::new(17, 25.0), opts)
                    .unwrap()
            })
            .join()
            .unwrap()
        });
        assert_eq!(single, from_thread, "sharing the compile changed output");
    }

    #[test]
    fn session_reuses_one_compiled_graph_across_points() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();
        let a = session
            .synthesize(SynthesisConstraints::new(17, 25.0), &opts)
            .unwrap();
        let b = session
            .synthesize(SynthesisConstraints::new(10, 40.0), &opts)
            .unwrap();
        assert!(a.latency <= 17 && b.latency <= 10);
        // The compiled artifacts are shared, not rebuilt: the closure
        // handle is pointer-stable across calls.
        assert!(std::ptr::eq(
            compiled.reachability(),
            compiled.reachability()
        ));
    }

    #[test]
    fn try_compile_reports_uncovered_kinds() {
        use pchls_fulib::{ModuleLibrary, ModuleSpec};
        // A library with no multiplier cannot compile hal.
        let lib = ModuleLibrary::new([
            ModuleSpec::new("add", [OpKind::Add], 87, 1, 2.5),
            ModuleSpec::new("sub", [OpKind::Sub], 87, 1, 2.5),
            ModuleSpec::new("comp", [OpKind::Comp], 8, 1, 2.5),
            ModuleSpec::new("input", [OpKind::Input], 16, 1, 0.2),
            ModuleSpec::new("output", [OpKind::Output], 16, 1, 1.7),
        ])
        .unwrap();
        let engine = Engine::new(lib);
        let err = engine.try_compile(&benchmarks::hal()).unwrap_err();
        assert!(matches!(
            err,
            SynthesisError::Uncovered { kind: OpKind::Mul }
        ));
    }

    #[test]
    fn compiled_skeletons_are_consistent() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::cosine());
        assert_eq!(
            compiled.min_latency(),
            compiled.asap_schedule().latency(compiled.fastest_timing())
        );
        assert!(compiled.asap_peak_power() > 0.0);
        assert!(compiled.optimize_stats().is_none());
        // The ALAP skeleton respects the same deadline.
        assert!(
            compiled.alap_schedule().latency(compiled.fastest_timing()) <= compiled.min_latency()
        );
    }

    #[test]
    fn compile_optimized_records_the_report() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile_optimized(&benchmarks::hal()).unwrap();
        assert!(compiled.optimize_stats().is_some());
    }

    #[test]
    fn batch_matches_one_at_a_time() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();
        let points = [(17u32, 25.0), (10, 40.0), (17, 1.0), (30, 12.0)];
        let results = session.batch(
            points
                .iter()
                .map(|&(t, p)| SynthesisRequest::new(SynthesisConstraints::new(t, p))),
        );
        assert_eq!(results.len(), points.len());
        for (r, &(t, p)) in results.iter().zip(&points) {
            let single = session.synthesize(SynthesisConstraints::new(t, p), &opts);
            match (&r.outcome, &single) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "T={t} P={p}"),
                (Err(_), Err(_)) => {}
                _ => panic!("batch/single disagree at T={t} P={p}"),
            }
        }
    }

    #[test]
    fn progress_hook_sees_every_iteration_and_can_cancel() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();
        let c = SynthesisConstraints::new(17, 25.0);

        let mut events = 0usize;
        let d = session
            .synthesize_with_progress(c.clone(), &opts, &mut |p| {
                events += 1;
                assert!(p.bound_ops <= p.total_ops);
                ControlFlow::Continue(())
            })
            .unwrap();
        assert!(events > 0, "hook never ran");
        assert_eq!(
            d,
            session.synthesize(c.clone(), &opts).unwrap(),
            "hook is pure"
        );

        let err = session
            .synthesize_with_progress(c, &opts, &mut |_| ControlFlow::Break(()))
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Cancelled));
    }

    #[test]
    fn session_force_directed_matches_free_function() {
        let g = benchmarks::cosine();
        let lib = paper_library();
        let engine = Engine::new(lib.clone());
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        let latency = compiled.min_latency() + 4;
        let via_session = session
            .force_directed(latency, SelectionPolicy::Fastest)
            .unwrap();
        let modules: Vec<_> = g
            .nodes()
            .iter()
            .map(|n| lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
            .collect();
        let via_free = pchls_sched::force_directed(&g, &lib, &modules, latency).unwrap();
        assert_eq!(via_session, via_free, "shared closure changed the schedule");
        // An impossible deadline surfaces as a typed schedule error.
        assert!(matches!(
            session.force_directed(1, SelectionPolicy::Fastest),
            Err(SynthesisError::Schedule(_))
        ));
    }

    #[test]
    fn session_auto_grid_matches_free_function() {
        let g = benchmarks::hal();
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let session = engine.session(&compiled);
        assert_eq!(
            session.auto_power_grid(10),
            crate::explore::auto_power_grid(&g, engine.library(), 10)
        );
    }

    #[test]
    fn sweep_batch_equals_individual_sweeps() {
        let engine = Engine::new(paper_library());
        let hal = engine.compile(&benchmarks::hal());
        let cosine = engine.compile(&benchmarks::cosine());
        let opts = SynthesisOptions::default();
        let jobs = [
            SweepJob {
                compiled: &hal,
                spec: SweepSpec::power(17, vec![10.0, 20.0, 40.0]),
            },
            SweepJob {
                compiled: &hal,
                spec: SweepSpec::power(10, vec![10.0, 20.0, 40.0]),
            },
            SweepJob {
                compiled: &cosine,
                spec: SweepSpec::latency(30.0, vec![10, 12, 15, 19]),
            },
        ];
        let batched = engine.sweep_batch(&jobs, &opts);
        assert_eq!(batched.len(), jobs.len());
        for (result, job) in batched.iter().zip(&jobs) {
            let single = engine.session(job.compiled).sweep(&job.spec, &opts);
            assert_eq!(result, &single);
        }
    }

    #[test]
    fn resumable_sweep_matches_full_sweep_and_reports_only_fresh_points() {
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&benchmarks::hal());
        let session = engine.session(&compiled);
        let opts = SynthesisOptions::default();
        let spec = SweepSpec::power(17, vec![5.0, 10.0, 20.0, 25.0, 40.0]);
        let full = session.sweep(&spec, &opts);

        // Seed the cache with the raw outcomes of points 1 and 3 — the
        // raw points come from a cold resumable run with nothing cached.
        let (cold, cold_fresh) = session.sweep_resumable(&spec, &opts, &vec![None; spec.len()]);
        assert_eq!(cold, full, "cold resumable run diverged from sweep()");
        assert_eq!(cold_fresh.len(), spec.len());
        let mut cached: Vec<Option<SweepPoint>> = vec![None; spec.len()];
        for &i in &[1usize, 3] {
            cached[i] = Some(cold_fresh[i].1.clone());
        }

        let (resumed, fresh) = session.sweep_resumable(&spec, &opts, &cached);
        assert_eq!(resumed, full, "resume changed the enveloped result");
        assert_eq!(
            fresh.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 2, 4],
            "only the uncached grid indices were synthesized"
        );
        for (i, point) in &fresh {
            assert_eq!(point, &cold_fresh[*i].1, "fresh point {i} is not raw");
        }
    }
}
