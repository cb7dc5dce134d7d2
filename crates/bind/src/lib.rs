//! Allocation and binding for power-constrained high-level synthesis.
//!
//! This crate supplies the resource-sharing layer of the paper, extending
//! the clique-partitioning architecture synthesis of Jou, Kuang & Chen
//! (VLSI-TSA 1993):
//!
//! * [`Binding`] — functional-unit instances and the operation → instance
//!   map, with structural validation.
//! * [`CompatibilityGraph`] — the compatibility graph of one fixed
//!   schedule: two operations are compatible when some library module
//!   implements both, as scheduled, **and** their execution intervals
//!   are disjoint.
//! * [`bind_schedule`] — greedy partial clique partitioning of a
//!   compatibility graph into functional-unit instances, minimizing area
//!   and interconnect (the baseline binder for fixed schedules).
//! * [`RegisterAllocation`] — left-edge register allocation over value
//!   lifetimes.
//! * [`InterconnectEstimate`] — multiplexer fan-in estimation for bound
//!   datapaths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod binding;
mod compat;
mod error;
mod gantt;
mod interconnect;
mod partition;
mod regalloc;

pub use binding::{Binding, FuInstance, InstanceId};
pub use compat::{CompatibilityGraph, INTERCONNECT_WEIGHT};
pub use error::BindError;
pub use gantt::gantt;
pub use interconnect::InterconnectEstimate;
pub use partition::bind_schedule;
pub use regalloc::{RegisterAllocation, ValueLifetime};
