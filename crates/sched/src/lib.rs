//! Time- and power-constrained scheduling for high-level synthesis.
//!
//! This crate implements the scheduling layer of the paper:
//!
//! * [`asap`] / [`alap`] — the classical unconstrained-resource schedules.
//! * [`pasap`] / [`palap`] — the paper's **power-constrained** variants
//!   (§2): operations are scheduled as early (late) as possible *but only
//!   if power is available* over their whole execution interval,
//!   otherwise they are delayed cycle by cycle ("stretching" the
//!   schedule to fit under the per-cycle power budget).
//!   [`PlacementCache`] runs their locked forms over one graph, budget
//!   and horizon many times, computing the placement order only when a
//!   delay changes.
//! * [`list_schedule`] — resource-constrained list scheduling (baseline).
//! * [`two_step`] — the two-phase schedule-then-flatten approach the
//!   paper contrasts itself with (refs [1, 2]): first a purely
//!   time-constrained schedule, then a mobility-based reordering pass
//!   that pushes operations out of power-peak cycles.
//!
//! All algorithms consume a [`TimingMap`]: the per-operation execution
//! delay and per-cycle power implied by a module selection. Power is
//! accounted per clock cycle via [`PowerProfile`] and [`PowerLedger`],
//! matching the paper's "maximum power per clock-cycle" constraint.
//!
//! Powers are exact integer quanta ([`pchls_fulib::quanta`]), so sums
//! are exact. A [`PowerBudget`] keeps its `f64` bounds; each ledger
//! converts them to quanta once ([`pchls_fulib::bound_quanta`]), and no
//! comparison in this crate carries a tolerance.
//!
//! # Example: stretching HAL under a power cap
//!
//! ```
//! use pchls_cdfg::benchmarks::hal;
//! use pchls_fulib::{paper_library, SelectionPolicy};
//! use pchls_sched::{asap, pasap, PowerBudget, PowerProfile, TimingMap};
//!
//! # fn main() -> Result<(), pchls_sched::ScheduleError> {
//! let g = hal();
//! let lib = paper_library();
//! let timing = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
//!
//! let unconstrained = asap(&g, &timing);
//! let peak = PowerProfile::of(&unconstrained, &timing).peak();
//!
//! let capped = pasap(&g, &timing, &PowerBudget::constant(peak / 2.0), 100)?;
//! let capped_peak = PowerProfile::of(&capped, &timing).peak();
//! assert!(capped_peak <= peak / 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alap;
mod asap;
mod budget;
mod error;
#[cfg(test)]
mod exact;
mod interval;
mod list;
mod pasap;
mod power;
mod schedule;
mod timing;
mod twostep;

pub use alap::alap;
pub use asap::asap;
pub use budget::{BudgetError, PowerBudget};
pub use error::ScheduleError;
pub use interval::PowerInterval;
pub use list::{list_schedule, Allocation};
pub use pasap::{palap, pasap, reserve_locked, LockedStarts, PlacementCache};
pub use power::{NaivePowerLedger, PowerLedger, PowerProfile};
pub use schedule::Schedule;
pub use timing::{OpTiming, TimingMap};
pub use twostep::{two_step, TwoStepOutcome};
