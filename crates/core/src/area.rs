//! Extended area accounting: registers and steering logic.
//!
//! The paper's Figure 2 reports "area" without defining whether storage
//! and multiplexers are included; Table 1 prices functional units only.
//! This module prices the rest of the datapath so both conventions are
//! available — and so the magnitude question raised in `EXPERIMENTS.md`
//! (our FU-only areas sit below the paper's) can be explored.

use serde::{Deserialize, Serialize};

use pchls_cdfg::Cdfg;

use crate::design::SynthesizedDesign;

/// Unit prices for the non-FU datapath components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Area of one register (word-wide storage element).
    pub register: u32,
    /// Area of one extra multiplexer input (fan-in beyond the first) on
    /// functional-unit operand ports and register write ports.
    pub mux_input: u32,
}

impl AreaModel {
    /// The paper's convention: functional units only.
    #[must_use]
    pub(crate) fn fu_only() -> AreaModel {
        AreaModel {
            register: 0,
            mux_input: 0,
        }
    }

    /// A plausible RT-level pricing against Table 1's scale: a register
    /// costs about a quarter of an adder, a mux input about a
    /// twentieth.
    #[must_use]
    pub fn with_storage() -> AreaModel {
        AreaModel {
            register: 22,
            mux_input: 4,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::fu_only()
    }
}

/// Breakdown of a design's area under an [`AreaModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Functional-unit area (the paper's number).
    pub functional_units: u64,
    /// Register storage area.
    pub registers: u64,
    /// Steering (multiplexer) area.
    pub interconnect: u64,
}

impl AreaBreakdown {
    /// Total datapath area.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.functional_units + self.registers + self.interconnect
    }
}

/// Prices `design` under `model`.
#[must_use]
pub fn area_breakdown(design: &SynthesizedDesign, graph: &Cdfg, model: AreaModel) -> AreaBreakdown {
    let registers = design.registers(graph);
    let interconnect = design.interconnect(graph);
    AreaBreakdown {
        functional_units: design.area,
        registers: registers.count() as u64 * u64::from(model.register),
        interconnect: interconnect.total() as u64 * u64::from(model.mux_input),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::SynthesisConstraints;
    use crate::engine::Engine;
    use crate::options::SynthesisOptions;
    use pchls_cdfg::benchmarks;
    use pchls_fulib::paper_library;

    fn design() -> (Cdfg, SynthesizedDesign) {
        let g = benchmarks::hal();
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let d = engine
            .session(&compiled)
            .synthesize(
                SynthesisConstraints::new(17, 25.0),
                &SynthesisOptions::default(),
            )
            .unwrap();
        (g, d)
    }

    #[test]
    fn fu_only_matches_the_design_area() {
        let (g, d) = design();
        let b = area_breakdown(&d, &g, AreaModel::fu_only());
        assert_eq!(b.total(), d.area);
        assert_eq!(b.registers, 0);
        assert_eq!(b.interconnect, 0);
    }

    #[test]
    fn storage_model_adds_positive_components() {
        let (g, d) = design();
        let b = area_breakdown(&d, &g, AreaModel::with_storage());
        assert_eq!(b.functional_units, d.area);
        assert!(b.registers > 0);
        assert!(b.total() > d.area);
    }

    #[test]
    fn breakdown_is_linear_in_prices() {
        let (g, d) = design();
        let single = area_breakdown(
            &d,
            &g,
            AreaModel {
                register: 1,
                mux_input: 1,
            },
        );
        let double = area_breakdown(
            &d,
            &g,
            AreaModel {
                register: 2,
                mux_input: 2,
            },
        );
        assert_eq!(double.registers, 2 * single.registers);
        assert_eq!(double.interconnect, 2 * single.interconnect);
    }
}
