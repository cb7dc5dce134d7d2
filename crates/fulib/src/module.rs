//! Module descriptors.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use pchls_cdfg::OpKind;

/// One functional-unit module type: a hardware component that can execute
/// a set of operations.
///
/// `power` is the draw **per clock cycle while the module is executing an
/// operation**, held in [quanta](crate::quanta()) of the paper's
/// (unit-less) power units; an idle module draws nothing in this model,
/// matching the paper's per-cycle power accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSpec {
    name: String,
    ops: BTreeSet<OpKind>,
    area: u32,
    latency: u32,
    power: u64,
}

impl ModuleSpec {
    /// Creates a module descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty, `latency` is zero, or `power` is not a
    /// whole number of quanta (negative, non-finite, or finer than
    /// 0.001 — see [`quanta()`](crate::quanta())) — such a module could never
    /// appear in a real library and would corrupt scheduling arithmetic.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        ops: impl IntoIterator<Item = OpKind>,
        area: u32,
        latency: u32,
        power: f64,
    ) -> ModuleSpec {
        let ops: BTreeSet<OpKind> = ops.into_iter().collect();
        assert!(!ops.is_empty(), "module must implement at least one op");
        assert!(latency > 0, "module latency must be at least one cycle");
        let power = crate::quanta(power)
            .unwrap_or_else(|| panic!("module power {power} is not a whole number of quanta"));
        ModuleSpec {
            name: name.into(),
            ops,
            area,
            latency,
            power,
        }
    }

    /// The module's name, unique within a library (e.g. `"mult_ser"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operations this module can execute.
    #[must_use]
    pub fn ops(&self) -> &BTreeSet<OpKind> {
        &self.ops
    }

    /// Whether the module can execute `kind`.
    #[must_use]
    pub fn implements(&self, kind: OpKind) -> bool {
        self.ops.contains(&kind)
    }

    /// Silicon area in the paper's (unit-less) area units.
    #[must_use]
    pub fn area(&self) -> u32 {
        self.area
    }

    /// Execution latency in clock cycles.
    #[must_use]
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Power drawn in each clock cycle the module executes, in quanta.
    #[must_use]
    pub fn power(&self) -> u64 {
        self.power
    }

    /// Total energy of one execution (`power × latency`), in
    /// quanta-cycles.
    #[must_use]
    pub(crate) fn energy(&self) -> u64 {
        self.power * u64::from(self.latency)
    }
}

// Written by hand so `power` is serialized in power units, like every
// other power that leaves the program.
impl Serialize for ModuleSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_owned(), self.name.to_value()),
            ("ops".to_owned(), self.ops.to_value()),
            ("area".to_owned(), self.area.to_value()),
            ("latency".to_owned(), self.latency.to_value()),
            ("power".to_owned(), crate::power_value(self.power)),
        ])
    }
}

impl Deserialize for ModuleSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in ModuleSpec"))
            })
        };
        Ok(ModuleSpec {
            name: String::from_value(field("name")?)?,
            ops: BTreeSet::from_value(field("ops")?)?,
            area: u32::from_value(field("area")?)?,
            latency: u32::from_value(field("latency")?)?,
            power: crate::power_from_value(field("power")?)?,
        })
    }
}

impl fmt::Display for ModuleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ops: Vec<&str> = self.ops.iter().map(|k| k.symbol()).collect();
        write!(
            f,
            "{} {{{}}} area={} cycles={} power={}",
            self.name,
            ops.join(","),
            self.area,
            self.latency,
            crate::units(self.power)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_power_times_latency() {
        let m = ModuleSpec::new("m", [OpKind::Mul], 103, 4, 2.7);
        assert_eq!(m.energy(), 10_800);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn zero_latency_rejected() {
        let _ = ModuleSpec::new("m", [OpKind::Add], 1, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_ops_rejected() {
        let _ = ModuleSpec::new("m", [], 1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "power")]
    fn negative_power_rejected() {
        let _ = ModuleSpec::new("m", [OpKind::Add], 1, 1, -0.5);
    }

    #[test]
    #[should_panic(expected = "whole number of quanta")]
    fn off_lattice_power_rejected() {
        let _ = ModuleSpec::new("m", [OpKind::Add], 1, 1, 2.5005);
    }

    #[test]
    fn display_mentions_everything() {
        let m = ModuleSpec::new("alu", [OpKind::Add, OpKind::Sub], 97, 1, 2.5);
        let s = m.to_string();
        assert!(s.contains("alu") && s.contains("97") && s.contains("2.5"));
    }
}
