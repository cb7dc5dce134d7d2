//! Battery discharge and lifetime models driven by per-cycle power
//! profiles.
//!
//! The paper's motivation (its refs [1, 2]) is that the charge a real
//! battery delivers depends strongly on the *current profile*: once the
//! peak current exceeds a threshold, effective capacity — and therefore
//! lifetime — drops sharply, with 20–30 % lifetime extensions reported
//! for peak-flattened schedules on low-quality cells. The paper itself
//! builds no battery model; this crate supplies one so the claimed
//! benefit can be demonstrated end to end (`DESIGN.md` §3 documents the
//! substitution).
//!
//! Three models of increasing fidelity share the [`BatteryModel`] trait:
//!
//! * [`IdealBattery`] — a coulomb counter; profile shape is irrelevant.
//! * [`PeukertBattery`] — Peukert's law: draw `i` costs effective charge
//!   `i^k` with `k > 1`, so power spikes waste capacity.
//! * [`RateCapacityBattery`] — an explicit rate-capacity knee: draw up
//!   to the rated per-cycle current costs its own charge, draw above the
//!   knee wastes extra charge proportional to the overshoot — directly
//!   modelling the paper's "peak-current exceeds a maximum-threshold"
//!   lifetime collapse.
//!
//! Lifetimes are measured in *iterations*: the per-cycle profile of one
//! schedule execution is replayed until the battery cuts off.
//!
//! The crate also couples the models back into synthesis:
//! [`budget_from_model`] derives a sagging per-cycle
//! [`PowerBudget`](pchls_sched::PowerBudget) envelope from a model's
//! state-of-charge trajectory, which `SynthesisConstraints` accepts
//! directly — the battery chemistry, not a hand-picked scalar, sets the
//! per-cycle power constraint. [`battery_report`] summarizes a
//! synthesized design's lifetime across the model trio (the
//! `pchls battery` subcommand).
//!
//! # Example
//!
//! ```
//! use pchls_battery::{BatteryModel, RateCapacityBattery};
//!
//! let spiky = vec![30.0, 0.0, 0.0, 30.0, 0.0, 0.0];
//! let flat = vec![10.0, 10.0, 10.0, 10.0, 10.0, 10.0]; // same energy
//! let battery = RateCapacityBattery::low_quality(20_000.0);
//! let a = battery.lifetime(&spiky);
//! let b = battery.lifetime(&flat);
//! assert!(b.iterations > a.iterations, "flat profiles last longer");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod budget;
mod ideal;
mod models;
mod peukert;
mod rate_capacity;
mod report;

pub use budget::budget_from_model;
pub use ideal::IdealBattery;
pub use models::{BatteryModel, Lifetime};
pub use peukert::PeukertBattery;
pub use rate_capacity::RateCapacityBattery;
pub use report::{battery_report, compare_profiles, BatteryReport, LifetimeComparison};
