//! Register-transfer-level realization of synthesized designs.
//!
//! A [`Datapath`] materializes a [`SynthesizedDesign`] into RT-level
//! structure: functional-unit instances (from the binding), registers
//! (left-edge allocation over value lifetimes), the operand/result
//! steering implied by the schedule, and a cycle-by-cycle control table.
//!
//! Two consumers build on it:
//!
//! * [`simulate`] — a cycle-accurate simulator that executes the control
//!   table against concrete inputs. Equivalence with the CDFG reference
//!   interpreter on random stimuli is the end-to-end correctness check
//!   for the whole synthesis flow, and the simulator's measured per-cycle
//!   power trace cross-checks the analytic [`PowerProfile`].
//! * [`to_structural_hdl`] — a structural Verilog-style netlist emitter
//!   for inspection and downstream tooling.
//!
//! [`PowerProfile`]: pchls_sched::PowerProfile
//! [`SynthesizedDesign`]: pchls_core::SynthesizedDesign
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::benchmarks::hal;
//! use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
//! use pchls_fulib::paper_library;
//! use pchls_rtl::{simulate, Datapath};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = hal();
//! let engine = Engine::new(paper_library());
//! let compiled = engine.compile(&g);
//! let design = engine.session(&compiled).synthesize(
//!     SynthesisConstraints::new(17, 25.0),
//!     &SynthesisOptions::default(),
//! )?;
//! let dp = Datapath::build(&g, &design, engine.library());
//!
//! let mut stim = pchls_cdfg::Stimulus::new();
//! for (name, v) in [("x", 1), ("y", 2), ("u", 3), ("dx", 4), ("a", 99), ("three", 3)] {
//!     stim.insert(name.into(), v);
//! }
//! let run = simulate(&g, &dp, &stim)?;
//! let reference = pchls_cdfg::Interpreter::new(&g).run(&stim)?;
//! assert_eq!(run.outputs, reference);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod hdl;
mod netlist;
mod sim;
mod vcd;

pub use hdl::to_structural_hdl;
pub use netlist::{ControlStep, Datapath};
pub use sim::{simulate, SimulationRun};
pub use vcd::{to_vcd, trace, Waveform};
