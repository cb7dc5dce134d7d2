//! # pchls — power-constrained high-level synthesis
//!
//! A reproduction of Nielsen & Madsen, *Power Constrained High-Level
//! Synthesis of Battery Powered Digital Systems* (DATE 2003): scheduling,
//! allocation and binding solved **simultaneously**, minimizing datapath
//! area under a latency bound `T` and a maximum power per clock cycle
//! `P<`. Flattened power profiles extend battery lifetime on the
//! low-quality cells low-cost portable systems ship with.
//!
//! This crate re-exports the whole workspace; see `README.md` for the
//! architecture, `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for paper-vs-measured results.
//!
//! ## The full pipeline in one example
//!
//! ```
//! use pchls::cdfg::{benchmarks::hal, Interpreter, Stimulus};
//! use pchls::core::{Engine, SweepSpec, SynthesisConstraints, SynthesisOptions};
//! use pchls::fulib::paper_library;
//! use pchls::rtl::{simulate, Datapath};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. An engine owns the module library (Table 1 of the paper) and
//! //    its derived indexes; compiling a graph runs the CSE/DCE
//! //    optimizer and computes every per-graph analysis once.
//! let engine = Engine::new(paper_library());
//! let compiled = engine.compile_optimized(&hal())?;
//! let session = engine.session(&compiled);
//!
//! // 2. Synthesize under the paper's constraints: T = 17 cycles,
//! //    at most 25 power units in any single cycle.
//! let options = SynthesisOptions::default();
//! let design = session.synthesize(SynthesisConstraints::new(17, 25.0), &options)?;
//! assert!(design.latency <= 17 && design.peak_power <= 25.0);
//!
//! // …the same session sweeps a whole constraint grid with no
//! // per-point recompute (this is Figure 2's workload):
//! let curve = session.sweep(&SweepSpec::power(17, session.auto_power_grid(6)), &options);
//! assert!(curve.points.iter().any(|p| p.is_feasible()));
//!
//! // 3. Materialize the RT-level datapath and prove it computes the
//! //    same values as the graph's reference interpreter.
//! let datapath = Datapath::build(compiled.graph(), &design, engine.library());
//! let mut stimulus = Stimulus::new();
//! for (name, value) in [("x", 1), ("y", 2), ("u", 3), ("dx", 4), ("a", 9), ("three", 3)] {
//!     stimulus.insert(name.into(), value);
//! }
//! let run = simulate(compiled.graph(), &datapath, &stimulus)?;
//! assert_eq!(run.outputs, Interpreter::new(compiled.graph()).run(&stimulus)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

/// Battery discharge and lifetime models (ideal, Peukert, rate-capacity).
pub use pchls_battery as battery;
/// Compatibility graph, clique partitioning, registers, interconnect.
pub use pchls_bind as bind;
/// CDFG intermediate representation, benchmarks, interpreter, optimizer.
pub use pchls_cdfg as cdfg;
/// The combined synthesis algorithm (`Engine`/`Session`), exploration
/// sweeps and baselines.
pub use pchls_core as core;
/// Functional-unit module library (the paper's Table 1).
pub use pchls_fulib as fulib;
/// Zero-dependency observability: metrics registry, tracing spans,
/// Prometheus-style exposition and Chrome-trace export.
pub use pchls_obs as obs;
/// Datapath netlists, cycle-accurate simulation, HDL and VCD emission.
pub use pchls_rtl as rtl;
/// Time- and power-constrained scheduling algorithms.
pub use pchls_sched as sched;
/// Concurrent synthesis service: compile cache, request scheduler,
/// JSON-lines wire protocol (`pchls serve`).
pub use pchls_serve as serve;
/// Persistent content-addressed columnar result store (`pchls store`,
/// `--store` on `batch`/`sweep`/`serve`).
pub use pchls_store as store;
