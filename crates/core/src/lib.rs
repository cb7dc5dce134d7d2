//! The paper's contribution: simultaneous power- and time-constrained
//! scheduling, allocation and binding minimizing datapath area.
//!
//! The [`Engine`] implements the heuristic of Nielsen & Madsen (DATE
//! 2003): a greedy partial-clique-partitioning loop over the power-aware
//! time-extended compatibility structure. Each iteration recomputes the
//! power-constrained `pasap`/`palap` windows, evaluates every feasible
//! *decision* — bind an operation onto an existing functional-unit
//! instance, or open a new instance with some library module — commits
//! the best one (most area saved, then least interconnect), and verifies
//! that a power-feasible schedule still exists. When a commitment makes
//! the remaining operations unschedulable, the algorithm **backtracks one
//! step and locks all unscheduled operations to the last valid `pasap`
//! schedule**, exactly as prescribed in the paper.
//!
//! The module-selection dimension of the design space (serial vs.
//! parallel multiplier, ALU vs. dedicated units) is explored through the
//! candidate decisions, and an adaptive bootstrap upgrades estimated
//! modules along infeasible critical paths so tight latencies force fast
//! units only where needed.
//!
//! # The session API
//!
//! Synthesis state is split by lifetime: [`Engine::new`] owns the
//! per-library indexes, [`Engine::compile`] owns the per-graph analyses
//! (a topological rank, bootstrap estimates, the fastest ASAP
//! schedule's latency and power peak), and
//! a [`Session`] synthesizes under any number of `(T, P<)` constraint
//! points — one at a time ([`Session::synthesize`]), as a power sweep
//! at a fixed latency ([`Session::sweep`]), or as an arbitrary batched
//! request list ([`Session::batch`]) — without recomputing any of it.
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::benchmarks::hal;
//! use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
//! use pchls_fulib::paper_library;
//!
//! # fn main() -> Result<(), pchls_core::SynthesisError> {
//! let engine = Engine::new(paper_library());
//! let compiled = engine.compile(&hal());
//! let design = engine.session(&compiled).synthesize(
//!     SynthesisConstraints::new(17, 25.0),
//!     &SynthesisOptions::default(),
//! )?;
//! assert!(design.latency <= 17);
//! assert!(design.peak_power <= 25.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod area;
mod baseline;
mod constraints;
mod design;
mod engine;
mod error;
mod explore;
mod options;
mod refine;
mod synthesis;

pub use area::{area_breakdown, AreaBreakdown, AreaModel};
pub use baseline::BaselineDesign;
pub use constraints::{SynthesisConstraints, MAX_LATENCY};
pub use design::{SynthesisStats, SynthesizedDesign};
pub use engine::{
    CompiledGraph, Engine, Progress, Session, SweepResult, SweepSpec, SynthesisRequest,
    SynthesisResult,
};
pub use error::SynthesisError;
pub use explore::{power_sweep_serial, SweepPoint};
pub use options::SynthesisOptions;
pub use pchls_sched::{BudgetError, PowerBudget};
