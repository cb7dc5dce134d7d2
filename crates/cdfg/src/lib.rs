//! Control/data-flow graph (CDFG) intermediate representation for
//! power-constrained high-level synthesis.
//!
//! This crate provides the graph substrate used by every other `pchls`
//! crate: operation nodes ([`OpKind`]), data-dependence edges with operand
//! ports, structural validation, graph analyses (topological order,
//! node sets, critical path), a reference interpreter used to
//! verify synthesized datapaths, textual and DOT serialization, a seeded
//! random-DAG generator for property tests, and the standard high-level
//! synthesis benchmark graphs evaluated in the paper (`hal`, `cosine`,
//! `elliptic`) plus several extras.
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::{CdfgBuilder, OpKind};
//!
//! # fn main() -> Result<(), pchls_cdfg::CdfgError> {
//! let mut b = CdfgBuilder::new("tiny");
//! let x = b.input("x");
//! let y = b.input("y");
//! let s = b.op(OpKind::Add, &[x, y]);
//! b.output("s", s);
//! let graph = b.finish()?;
//! assert_eq!(graph.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod analysis;
pub mod benchmarks;
mod builder;
mod delta;
mod dot;
mod edit;
mod error;
mod fingerprint;
mod graph;
mod interp;
mod op;
mod optimize;
mod random;
mod stats;
mod text;

pub use analysis::{CriticalPath, NodeSet};
pub use builder::CdfgBuilder;
pub use delta::{diff, GraphDelta};
pub use edit::{EditError, GraphEdit};
pub use error::CdfgError;
pub use fingerprint::{graph_fingerprint, StableHasher};
pub use graph::{Cdfg, Edge, Node, NodeId};
pub use interp::{Interpreter, Stimulus, Value};
pub use op::OpKind;
pub use optimize::{optimize, OptimizeStats};
pub use random::{random_dag, RandomDagConfig};
pub use stats::GraphStats;
pub use text::{parse_cdfg, write_cdfg};
