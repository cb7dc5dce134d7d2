//! The result of synthesis: a fully scheduled, allocated and bound
//! design.

use serde::{Deserialize, Serialize};

use pchls_bind::{Binding, InterconnectEstimate, RegisterAllocation};
use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;
use pchls_sched::{PowerInterval, PowerProfile, Schedule, TimingMap};

use crate::constraints::SynthesisConstraints;
use crate::error::SynthesisError;

/// Counters describing how hard the greedy loop had to work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SynthesisStats {
    /// Binding decisions committed (one per operation).
    pub decisions: usize,
    /// Paper-style backtracks (undo last decision + lock all unscheduled
    /// operations to the last valid `pasap` schedule).
    pub backtracks: usize,
    /// Candidate decisions rejected by the per-decision feasibility
    /// check before commitment.
    pub rejected_candidates: usize,
    /// Commits whose feasibility was proven without re-running the
    /// scheduler (the decision locked operations exactly at their
    /// provisional starts with unchanged timing).
    #[serde(default)]
    pub fast_commits: usize,
}

/// A complete synthesized datapath: schedule, module timing, binding and
/// the derived metrics the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesizedDesign {
    /// Start cycle of every operation.
    pub schedule: Schedule,
    /// Final per-operation delay/power (consistent with the binding).
    pub timing: TimingMap,
    /// Functional-unit instances and the operation → instance map.
    pub binding: Binding,
    /// Total functional-unit area (the paper's y-axis in Figure 2).
    pub area: u64,
    /// Achieved latency in cycles.
    pub latency: u32,
    /// Peak per-cycle power of the design.
    pub peak_power: f64,
    /// The constraints the design was synthesized under.
    pub constraints: SynthesisConstraints,
    /// Effort counters from the synthesis loop (zero for baselines).
    #[serde(default)]
    pub stats: SynthesisStats,
}

impl SynthesizedDesign {
    /// Assembles a design from its parts, computing the metrics.
    #[must_use]
    pub(crate) fn assemble(
        schedule: Schedule,
        timing: TimingMap,
        binding: Binding,
        library: &ModuleLibrary,
        constraints: SynthesisConstraints,
    ) -> SynthesizedDesign {
        let area = binding.area(library);
        let latency = schedule.latency(&timing);
        let peak_power = PowerProfile::of(&schedule, &timing).peak();
        SynthesizedDesign {
            schedule,
            timing,
            binding,
            area,
            latency,
            peak_power,
            constraints,
            stats: SynthesisStats::default(),
        }
    }

    /// The design's per-cycle power profile.
    #[must_use]
    pub fn power_profile(&self) -> PowerProfile {
        PowerProfile::of(&self.schedule, &self.timing)
    }

    /// Left-edge register allocation for the design.
    #[must_use]
    pub fn registers(&self, graph: &Cdfg) -> RegisterAllocation {
        RegisterAllocation::left_edge(graph, &self.schedule, &self.timing)
    }

    /// Multiplexer fan-in estimate for the design.
    #[must_use]
    pub fn interconnect(&self, graph: &Cdfg) -> InterconnectEstimate {
        InterconnectEstimate::of(graph, &self.binding, &self.registers(graph))
    }

    /// Re-validates every invariant: dependences, the latency and power
    /// bounds, binding completeness, kind/timing consistency and
    /// non-overlap on shared units.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self, graph: &Cdfg, library: &ModuleLibrary) -> Result<(), SynthesisError> {
        self.validate_recording(graph, library, &mut PowerInterval::default())
    }

    /// [`validate`](SynthesizedDesign::validate), adding its budget
    /// comparisons to `seen`.
    pub(crate) fn validate_recording(
        &self,
        graph: &Cdfg,
        library: &ModuleLibrary,
        seen: &mut PowerInterval,
    ) -> Result<(), SynthesisError> {
        self.schedule
            .validate_recording(
                graph,
                &self.timing,
                Some(self.constraints.latency),
                Some(&self.constraints.budget),
                seen,
            )
            .map_err(SynthesisError::Schedule)?;
        self.binding
            .validate(graph, library, &self.schedule, &self.timing)?;
        Ok(())
    }

    /// One-line human summary (`area`, `latency`, `peak`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "area={} latency={} peak_power={:.1} units={}",
            self.area,
            self.latency,
            self.peak_power,
            self.binding.instances().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks::hal;
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::asap;

    fn sample() -> (Cdfg, ModuleLibrary, SynthesizedDesign) {
        let g = hal();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = pchls_bind::bind_schedule(&g, &lib, &s, &t).unwrap();
        let c = SynthesisConstraints::new(20, f64::INFINITY);
        let d = SynthesizedDesign::assemble(s, t, b, &lib, c);
        (g, lib, d)
    }

    #[test]
    fn assemble_computes_consistent_metrics() {
        let (g, lib, d) = sample();
        assert_eq!(d.area, d.binding.area(&lib));
        assert_eq!(d.latency, d.schedule.latency(&d.timing));
        assert!((d.peak_power - d.power_profile().peak()).abs() < 1e-12);
        d.validate(&g, &lib).unwrap();
    }

    #[test]
    fn validate_rejects_violated_power_bound() {
        let (g, lib, mut d) = sample();
        d.constraints = SynthesisConstraints::new(20, d.peak_power / 2.0);
        assert!(matches!(
            d.validate(&g, &lib),
            Err(SynthesisError::Schedule(_))
        ));
    }

    #[test]
    fn summary_mentions_area() {
        let (_, _, d) = sample();
        assert!(d.summary().contains(&format!("area={}", d.area)));
    }

    #[test]
    fn registers_and_interconnect_are_available() {
        let (g, _, d) = sample();
        assert!(d.registers(&g).count() > 0);
        let _ = d.interconnect(&g);
    }
}
