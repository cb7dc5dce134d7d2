//! Functional-unit module library for power-constrained high-level
//! synthesis.
//!
//! A [`ModuleLibrary`] describes the RT-level components available to the
//! synthesizer: each [`ModuleSpec`] implements a set of operations
//! ([`OpKind`]s) with a silicon area, an execution latency in clock
//! cycles, and a power draw per clock cycle while executing. Module
//! selection is a first-class part of the paper's design space — e.g. the
//! slow-but-small serial multiplier versus the fast-but-big parallel
//! multiplier, or folding `+`, `-` and `>` onto one ALU.
//!
//! [`paper_library`] reproduces Table 1 of the paper exactly. Powers are
//! held as exact integer quanta (milli-units, see [`quanta()`]) from library
//! construction on; [`units`] converts back only for output.
//!
//! # Example
//!
//! ```
//! use pchls_fulib::{paper_library, SelectionPolicy};
//! use pchls_cdfg::OpKind;
//!
//! let lib = paper_library();
//! let fast = lib.select(OpKind::Mul, SelectionPolicy::Fastest).unwrap();
//! assert_eq!(lib.module(fast).name(), "mult_par");
//! let small = lib.select(OpKind::Mul, SelectionPolicy::MinArea).unwrap();
//! assert_eq!(lib.module(small).name(), "mult_ser");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod library;
mod module;
mod paper;
mod quanta;
mod selection;
mod text;

pub use library::{LibraryError, ModuleId, ModuleLibrary};
pub use module::ModuleSpec;
pub use paper::paper_library;
pub use quanta::{bound_quanta, power_from_value, power_value, quanta, units, QUANTA_PER_UNIT};
pub use selection::SelectionPolicy;
pub use text::{parse_library, write_library, ParseLibraryError};

// Re-exported so downstream crates name one source of truth for op kinds.
pub use pchls_cdfg::OpKind;
