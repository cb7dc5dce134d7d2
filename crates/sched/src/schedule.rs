//! The schedule type and its validation.

use serde::{Deserialize, Serialize};

use pchls_cdfg::{Cdfg, NodeId};

use crate::budget::PowerBudget;
use crate::error::ScheduleError;
use crate::interval::PowerInterval;
use crate::power::PowerProfile;
use crate::timing::TimingMap;

/// A complete schedule: a start cycle for every node of one [`Cdfg`].
///
/// Cycle numbering starts at 0; an operation with start `s` and delay `d`
/// executes during cycles `s, s+1, …, s+d-1`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    starts: Vec<u32>,
}

impl Schedule {
    /// Wraps per-node start times (indexed by [`NodeId`]).
    #[must_use]
    pub fn new(starts: Vec<u32>) -> Schedule {
        Schedule { starts }
    }

    /// Number of scheduled nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the schedule covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Start cycle of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn start(&self, id: NodeId) -> u32 {
        self.starts[id.index()]
    }

    /// First cycle after `id` finishes (`start + delay`).
    #[must_use]
    pub fn finish(&self, id: NodeId, timing: &TimingMap) -> u32 {
        self.start(id) + timing.delay(id)
    }

    /// Raw start times indexed by node.
    #[must_use]
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Total latency: the cycle after the last operation finishes.
    #[must_use]
    pub fn latency(&self, timing: &TimingMap) -> u32 {
        self.starts
            .iter()
            .enumerate()
            .map(|(i, &s)| s + timing.delay(NodeId::new(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Checks that the schedule respects data dependences, an optional
    /// latency bound, and an optional per-cycle [`PowerBudget`]: each
    /// cycle's draw must stay under *that cycle's* bound.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::PrecedenceViolated`] if a node starts before an
    ///   operand finishes.
    /// * [`ScheduleError::LatencyExceeded`] if `latency_bound` is violated.
    /// * [`ScheduleError::PowerExceeded`] if `budget` is violated in some
    ///   cycle; the reported bound is the violated cycle's own bound.
    pub fn validate(
        &self,
        graph: &Cdfg,
        timing: &TimingMap,
        latency_bound: Option<u32>,
        budget: Option<&PowerBudget>,
    ) -> Result<(), ScheduleError> {
        self.validate_recording(
            graph,
            timing,
            latency_bound,
            budget,
            &mut PowerInterval::default(),
        )
    }

    /// [`validate`](Schedule::validate), adding the budget comparisons
    /// it makes to `seen` (see [`PowerInterval`]).
    ///
    /// # Errors
    ///
    /// As [`validate`](Schedule::validate).
    pub fn validate_recording(
        &self,
        graph: &Cdfg,
        timing: &TimingMap,
        latency_bound: Option<u32>,
        budget: Option<&PowerBudget>,
        seen: &mut PowerInterval,
    ) -> Result<(), ScheduleError> {
        assert_eq!(self.starts.len(), graph.len(), "schedule/graph mismatch");
        for id in graph.node_ids() {
            for &p in graph.operands(id) {
                if self.start(id) < self.finish(p, timing) {
                    return Err(ScheduleError::PrecedenceViolated {
                        producer: p,
                        consumer: id,
                    });
                }
            }
        }
        let latency = self.latency(timing);
        if let Some(bound) = latency_bound {
            if latency > bound {
                return Err(ScheduleError::LatencyExceeded { latency, bound });
            }
        }
        if let Some(budget) = budget {
            let profile = PowerProfile::of(self, timing);
            if let Some((cycle, power)) = profile.first_violation(budget, seen) {
                return Err(ScheduleError::PowerExceeded {
                    cycle,
                    power: pchls_fulib::units(power),
                    bound: budget.bound_at(cycle),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::OpTiming;
    use pchls_cdfg::CdfgBuilder;

    fn chain() -> (Cdfg, TimingMap) {
        let mut b = CdfgBuilder::new("c");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.add(x, y);
        b.output("o", a);
        let g = b.finish().unwrap();
        let t = TimingMap::from_entries(vec![
            OpTiming {
                delay: 1,
                power: 200
            };
            4
        ]);
        (g, t)
    }

    #[test]
    fn latency_counts_last_finish() {
        let (_, t) = chain();
        let s = Schedule::new(vec![0, 0, 1, 2]);
        assert_eq!(s.latency(&t), 3);
    }

    #[test]
    fn valid_schedule_passes() {
        let (g, t) = chain();
        let s = Schedule::new(vec![0, 0, 1, 2]);
        assert!(s
            .validate(&g, &t, Some(3), Some(&PowerBudget::constant(1.0)))
            .is_ok());
    }

    #[test]
    fn precedence_violation_detected() {
        let (g, t) = chain();
        let s = Schedule::new(vec![0, 0, 0, 2]); // add overlaps its inputs
        let err = s.validate(&g, &t, None, None).unwrap_err();
        assert!(matches!(err, ScheduleError::PrecedenceViolated { .. }));
    }

    #[test]
    fn latency_bound_enforced() {
        let (g, t) = chain();
        let s = Schedule::new(vec![0, 0, 1, 2]);
        let err = s.validate(&g, &t, Some(2), None).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::LatencyExceeded {
                latency: 3,
                bound: 2
            }
        ));
    }

    #[test]
    fn power_bound_enforced() {
        let (g, t) = chain();
        // Both inputs in cycle 0: 0.4 > 0.3.
        let s = Schedule::new(vec![0, 0, 1, 2]);
        let err = s
            .validate(&g, &t, None, Some(&PowerBudget::constant(0.3)))
            .unwrap_err();
        match err {
            ScheduleError::PowerExceeded { cycle, power, .. } => {
                assert_eq!(cycle, 0);
                assert_eq!(power, 0.4);
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
