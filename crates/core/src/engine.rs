//! The session-oriented engine API: compile-once graphs, reusable
//! synthesis sessions, batched sweeps.
//!
//! The paper's exploration workflow (its Figure 2) synthesizes the
//! *same* CDFG under dozens of `(T, P<)` constraint points. Library
//! indexes, the topological rank and bootstrap module estimates do not
//! depend on the point, so this module splits those costs by lifetime:
//!
//! * [`Engine::new`] owns the **per-library** artifacts — kind-bucketed
//!   module candidate lists — computed once for the library's lifetime.
//! * [`Engine::compile`] produces a [`CompiledGraph`] owning the
//!   **per-graph** artifacts — a topological rank of the nodes (the
//!   order a pair merge serializes in), min-area bootstrap module
//!   estimates, and the fastest modules' minimum latency, ASAP power
//!   peak and largest single-operation power — computed once per graph,
//!   in O(n + e) memory.
//! * [`Engine::session`] pairs the two into a [`Session`] whose
//!   [`synthesize`](Session::synthesize), [`sweep`](Session::sweep) and
//!   [`batch`](Session::batch) calls share every compiled artifact
//!   across thousands of constraint points with **no per-point
//!   recompute** — and produce output byte-identical to the serial
//!   reference [`power_sweep_serial`](crate::power_sweep_serial)
//!   (enforced by `tests/engine_equivalence.rs`).
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
use std::sync::OnceLock;

use pchls_cdfg::{optimize, Cdfg, NodeId, OpKind, OptimizeStats};
use pchls_fulib::{bound_quanta, ModuleId, ModuleLibrary, SelectionPolicy};
use pchls_sched::{asap, PowerBudget, PowerInterval, PowerProfile, ScheduleError, TimingMap};

use crate::baseline::{trimmed_allocation_bind, two_step_bind, unconstrained_bind, BaselineDesign};
use crate::constraints::SynthesisConstraints;
use crate::design::SynthesizedDesign;
use crate::error::SynthesisError;
use crate::explore::{envelope, power_order, SweepPoint};
use crate::options::SynthesisOptions;
use crate::refine::{portfolio_session, refined_session};
use crate::synthesis::synthesize_recorded;

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
}

impl Engine {
    /// Builds the per-library indexes (per-kind module lists) and takes
    /// ownership of `library`.
    #[must_use]
    pub fn new(library: ModuleLibrary) -> Engine {
        let kind_modules: Vec<Vec<ModuleId>> = OpKind::ALL
            .iter()
            .map(|&k| library.candidates(k).collect())
            .collect();
        Engine {
            library,
            kind_modules,
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

    /// Compiles `graph` into the per-graph artifacts every subsequent
    /// synthesis call reuses: the topological rank, bootstrap module
    /// estimates, and what the fastest modules' ASAP schedule gives
    /// (minimum latency and power peak).
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
        let asap_fastest = asap(graph, &fastest_timing);
        let min_latency = asap_fastest.latency(&fastest_timing);
        let asap_peak = PowerProfile::of(&asap_fastest, &fastest_timing).peak();
        Ok(CompiledGraph {
            graph: graph.clone(),
            rank: topological_rank(graph),
            seed_modules,
            max_op_power: fastest_timing.max_single_op_power(),
            min_latency,
            asap_peak,
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
}

/// The per-graph half of the synthesis state: an owned copy of the
/// graph plus every artifact derived from `(graph, library)` alone —
/// shared, read-only, across all constraint points of all sessions.
#[derive(Debug)]
pub struct CompiledGraph {
    graph: Cdfg,
    /// Each node's position in a topological order (see
    /// [`topological_rank`]): a pair merge runs its lower-ranked op
    /// first.
    rank: Vec<u32>,
    /// Min-area module estimate per operation — the bootstrap seed.
    seed_modules: Vec<ModuleId>,
    /// The largest single-operation power under the fastest modules, in
    /// quanta: the floor of [`Session::auto_power_grid`].
    max_op_power: u64,
    min_latency: u32,
    asap_peak: f64,
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

    /// Each node's topological rank, indexed by node id.
    pub(crate) fn rank(&self) -> &[u32] {
        &self.rank
    }

    pub(crate) fn seed_modules(&self) -> &[ModuleId] {
        &self.seed_modules
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

/// Each node's position in a topological order of `graph`, indexed by
/// node id. The order lists the nodes in id order, each preceded by its
/// operands not yet listed (an iterative depth-first walk over
/// operands), so an edge `u → v` gives `rank[u] < rank[v]`, and a graph
/// whose every operand id is below its consumer's gets `rank[v] == v`.
/// O(n + e) time and memory.
fn topological_rank(graph: &Cdfg) -> Vec<u32> {
    const UNLISTED: u32 = u32::MAX;
    let mut rank = vec![UNLISTED; graph.len()];
    let mut next = 0;
    // Each entry: a node and how many of its operands are walked.
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    for root in graph.node_ids() {
        if rank[root.index()] == UNLISTED {
            stack.push((root, 0));
        }
        while let Some(top) = stack.last_mut() {
            let (v, walked) = *top;
            match graph.operands(v).get(walked) {
                Some(&p) => {
                    top.1 += 1;
                    if rank[p.index()] == UNLISTED {
                        stack.push((p, 0));
                    }
                }
                None => {
                    rank[v.index()] = next;
                    next += 1;
                    stack.pop();
                }
            }
        }
    }
    rank
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

/// A synthesis session: an [`Engine`] paired with one of its
/// [`CompiledGraph`]s. Every call shares the compiled artifacts; none
/// recomputes the rank, library indexes or bootstrap seeds.
#[derive(Debug, Clone, Copy)]
pub struct Session<'e> {
    engine: &'e Engine,
    compiled: &'e CompiledGraph,
}

impl<'e> Session<'e> {
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
        synthesize_recorded(self.engine, self.compiled, &constraints, options, None).0
    }

    /// [`synthesize`](Session::synthesize), also reporting the run's
    /// [`PowerInterval`] under a constant budget: every constant bound
    /// `P′` with `interval.covers(bound_quanta(P′))` gets this same
    /// answer (an error included), up to the `constraints` the design
    /// carries and the bound an error message names. An envelope budget
    /// reports no interval.
    ///
    /// # Errors
    ///
    /// The outcome is as [`synthesize`](Session::synthesize)'s.
    pub fn synthesize_with_interval(
        &self,
        constraints: SynthesisConstraints,
        options: &SynthesisOptions,
    ) -> (
        Result<SynthesizedDesign, SynthesisError>,
        Option<PowerInterval>,
    ) {
        let (outcome, interval) =
            synthesize_recorded(self.engine, self.compiled, &constraints, options, None);
        // Only a constant budget's record describes one threshold.
        (outcome, constraints.budget.as_constant().map(|_| interval))
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
        synthesize_recorded(
            self.engine,
            self.compiled,
            &constraints,
            options,
            Some(hook),
        )
        .0
    }

    /// The self-tightening refinement loop over this session's shared
    /// artifacts: re-synthesizes with the power bound ratcheted one
    /// quantum below each achieved peak and keeps the smallest design,
    /// never larger than [`synthesize`](Session::synthesize)'s.
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

    /// Sweeps the power bound at a fixed latency, reusing the compiled
    /// graph for every grid point: the grid's requests go through
    /// [`batch`](Session::batch) and [`SweepSpec::envelope`] finishes the
    /// curve — output byte-identical to the serial reference
    /// [`power_sweep_serial`](crate::power_sweep_serial).
    #[must_use]
    pub fn sweep(&self, spec: &SweepSpec, options: &SynthesisOptions) -> SweepResult {
        let name = self.compiled.name();
        let (results, kernel_runs) = self.resolve(
            (0..spec.len())
                .map(|i| SynthesisRequest::new(spec.constraints(i)).with_options(*options))
                .collect(),
        );
        SweepResult {
            benchmark: name.to_owned(),
            points: spec.envelope(results.iter().map(|r| r.to_point(name)).collect()),
            kernel_runs,
        }
    }

    /// Runs a batch of independent synthesis requests, fanned out over
    /// the worker pool while sharing every compiled artifact — this
    /// crate's one parallel fan-out ([`sweep`](Session::sweep) runs its
    /// grid through it). Results come back in request order; each
    /// equals the corresponding one-at-a-time
    /// [`synthesize`](Session::synthesize) call exactly.
    ///
    /// The kernel runs once per distinct answer: a constant-budget
    /// request inside the [`PowerInterval`] of a run with the same
    /// latency and options takes that run's answer, relabelled with its
    /// own constraints.
    #[must_use]
    pub fn batch(
        &self,
        requests: impl IntoIterator<Item = SynthesisRequest>,
    ) -> Vec<SynthesisResult> {
        self.resolve(requests.into_iter().collect()).0
    }

    /// [`batch`](Session::batch)'s results, and how many kernel runs
    /// produced them.
    ///
    /// Constant-budget requests with the same latency and options form a
    /// class, ordered by bound quanta. Intervals are exact equivalence
    /// classes — a run anywhere inside `[lo, hi)` reports the same
    /// `[lo, hi)` — so each class is resolved in deterministic bisection
    /// rounds: the first runs its lowest and highest bounds (and every
    /// envelope request), and each later round runs the middle of every
    /// stretch no finished run's interval covers. Every class shares one
    /// fan-out per round. The run count is therefore the number of
    /// distinct answers, whatever the thread count.
    fn resolve(&self, requests: Vec<SynthesisRequest>) -> (Vec<SynthesisResult>, usize) {
        // A constant request's class and bound quanta; an envelope
        // request has neither.
        let keys: Vec<_> = requests
            .iter()
            .map(|r| {
                let SynthesisOptions {
                    backtracking,
                    module_selection,
                    interconnect_scoring,
                } = r.options;
                let class = (
                    r.constraints.latency,
                    [backtracking, module_selection, interconnect_scoring],
                );
                let quanta = r.constraints.budget.as_constant().map(bound_quanta);
                quanta.map(|q| (class, q))
            })
            .collect();
        let class = |i: usize| keys[i].map(|(class, _)| class);
        // Constant requests by class, then bound: each class is one
        // contiguous stretch of `order`. Round one runs every envelope
        // request and the lowest and highest bound of every class.
        let (mut order, mut next): (Vec<usize>, Vec<usize>) =
            (0..requests.len()).partition(|&i| keys[i].is_some());
        order.sort_by_key(|&i| (keys[i], i));
        for stretch in order.chunk_by(|&a, &b| class(a) == class(b)) {
            next.push(stretch[0]);
            if stretch.len() > 1 {
                next.push(stretch[stretch.len() - 1]);
            }
        }
        let mut rank = vec![0; requests.len()];
        for (pos, &i) in order.iter().enumerate() {
            rank[i] = pos;
        }
        // `owner[i]`: the request whose run answers request `i`.
        let mut owner: Vec<Option<usize>> = vec![None; requests.len()];
        let mut outcomes: Vec<Option<Result<SynthesizedDesign, SynthesisError>>> =
            vec![None; requests.len()];
        let mut runs = 0;
        while !next.is_empty() {
            runs += next.len();
            let ran = pchls_par::par_map(&next, |&i| {
                let r = &requests[i];
                synthesize_recorded(self.engine, self.compiled, &r.constraints, &r.options, None)
            });
            for (&i, (outcome, interval)) in next.iter().zip(ran) {
                outcomes[i] = Some(outcome);
                owner[i] = Some(i);
                let Some((run_class, _)) = keys[i] else {
                    continue;
                };
                // An interval covers one contiguous stretch of its class
                // around the run.
                let covered = |&p: &usize| {
                    let j = order[p];
                    owner[j].is_none()
                        && keys[j].is_some_and(|(c, q)| c == run_class && interval.covers(q))
                };
                let pos = rank[i];
                let below: Vec<usize> = (0..pos).rev().take_while(covered).collect();
                let above: Vec<usize> = (pos + 1..order.len()).take_while(covered).collect();
                for p in below.into_iter().chain(above) {
                    owner[order[p]] = Some(i);
                }
            }
            // The middle of every uncovered stretch: each lies inside one
            // class, whose lowest and highest bounds ran in round one.
            next = order
                .chunk_by(|&a, &b| owner[a].is_none() == owner[b].is_none())
                .filter(|stretch| owner[stretch[0]].is_none())
                .map(|stretch| stretch[(stretch.len() - 1) / 2])
                .collect();
        }
        // Batch requests answered by another request's run; the series
        // keeps the name it had when only sweeps reused answers.
        static REUSED: OnceLock<pchls_obs::Counter> = OnceLock::new();
        REUSED
            .get_or_init(|| pchls_obs::global().counter("pchls_sweep_points_reused_total"))
            .add((requests.len() - runs) as u64);
        for i in 0..requests.len() {
            if outcomes[i].is_none() {
                let run = owner[i].expect("every request resolved");
                let answer = outcomes[run].clone().expect("an owner ran");
                outcomes[i] = Some(relabel(answer, &requests[i].constraints));
            }
        }
        let results = requests
            .into_iter()
            .zip(outcomes)
            .map(|(request, outcome)| SynthesisResult {
                request,
                outcome: outcome.expect("every request answered"),
            })
            .collect();
        (results, runs)
    }

    /// A sensible power grid for sweeping this graph: `steps` evenly
    /// spaced bounds from the largest single operation's power under the
    /// fastest modules up to the peak of the power-oblivious ASAP design
    /// (beyond which the constraint stops binding) plus one step of
    /// headroom, both read at compile time.
    #[must_use]
    pub fn auto_power_grid(&self, steps: usize) -> Vec<f64> {
        let lo = pchls_fulib::units(self.compiled.max_op_power);
        let hi = self.compiled.asap_peak * 1.1;
        let steps = steps.max(2);
        (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect()
    }

    /// The two-step baseline (paper refs [1, 2]) on this session's
    /// graph and library: a time-constrained ASAP schedule, a
    /// mobility-based power-flattening pass, then clique-partitioning
    /// binding on the fixed resulting schedule, with one up-front module
    /// `policy`.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Infeasible`] when even the unconstrained
    /// schedule misses the latency bound; binding failures propagate.
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
    /// library: plain ASAP scheduling plus clique-partitioning binding,
    /// ignoring `P<` entirely.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Infeasible`] when the critical path misses
    /// `latency`; binding failures propagate.
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
    /// As `trimmed_allocation_bind`.
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
}

/// One power sweep at a fixed latency over a compiled graph: a grid of
/// constant bounds or of scale factors on one budget envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Fixed latency, varying power bounds (one Figure 2 curve).
    Power {
        /// Latency constraint `T` for every point.
        latency: u32,
        /// Power bounds of the grid.
        powers: Vec<f64>,
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
            SweepSpec::BudgetScale { scales, .. } => scales.len(),
        }
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The monotone-envelope pass that finishes a sweep: `raw[i]` is
    /// the raw outcome of grid point `i` (as
    /// [`SynthesisResult::to_point`] summarizes it), and each returned
    /// point is the best design found at any tighter point of the grid.
    /// A caller holding raw points from elsewhere (a result store)
    /// finishes its sweep here, exactly as [`Session::sweep`] does.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != self.len()`.
    #[must_use]
    pub fn envelope(&self, raw: Vec<SweepPoint>) -> Vec<SweepPoint> {
        assert_eq!(raw.len(), self.len(), "one raw point per grid point");
        match self {
            SweepSpec::Power { powers, .. } => envelope(raw, &power_order(powers)),
            // A design feasible at scale `s` stays feasible at every larger
            // scale (the envelope only grows pointwise), so the monotone
            // carry applies along ascending scales; the carried label is
            // the point's own peak bound.
            SweepSpec::BudgetScale { scales, .. } => envelope(raw, &power_order(scales)),
        }
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
            SweepSpec::BudgetScale {
                latency,
                budget,
                scales,
            } => SynthesisConstraints::new(*latency, budget.scaled(scales[i])),
        }
    }
}

/// A run's `answer` as a run under `constraints`, another constant
/// bound of its interval, reports it: the design carries `constraints`,
/// and an error names their bound.
fn relabel(
    mut answer: Result<SynthesizedDesign, SynthesisError>,
    constraints: &SynthesisConstraints,
) -> Result<SynthesizedDesign, SynthesisError> {
    match &mut answer {
        Ok(design) => design.constraints = constraints.clone(),
        Err(SynthesisError::Infeasible { cause: e } | SynthesisError::Schedule(e)) => match e {
            ScheduleError::Infeasible { max_power: b, .. }
            | ScheduleError::OpExceedsBudget { max_power: b, .. }
            | ScheduleError::PowerExceeded { bound: b, .. } => *b = constraints.max_power(),
            _ => {}
        },
        Err(_) => {}
    }
    answer
}

/// One sweep's output: the enveloped points, labelled with the
/// benchmark they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Name of the swept graph.
    pub benchmark: String,
    /// One enveloped point per grid entry, in grid order.
    pub points: Vec<SweepPoint>,
    /// Synthesis runs the sweep made: one per envelope grid point, and
    /// one per distinct answer among constant ones (see
    /// [`Session::batch`]).
    pub kernel_runs: usize,
}

impl SweepResult {
    /// Consumes the result, yielding just the points.
    #[must_use]
    pub fn into_points(self) -> Vec<SweepPoint> {
        self.points
    }
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
        let compiled = std::sync::Arc::new(engine.compile(&benchmarks::hal()));
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
        let fastest =
            TimingMap::from_policy(compiled.graph(), engine.library(), SelectionPolicy::Fastest);
        let skeleton = asap(compiled.graph(), &fastest);
        assert_eq!(compiled.min_latency(), skeleton.latency(&fastest));
        assert_eq!(
            compiled.asap_peak_power(),
            PowerProfile::of(&skeleton, &fastest).peak()
        );
        assert_eq!(
            engine.session(&compiled).auto_power_grid(2)[0],
            pchls_fulib::units(fastest.max_single_op_power())
        );
        assert!(compiled.optimize_stats().is_none());
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
            assert_eq!(r.outcome, single, "T={t} P={p}");
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
}
