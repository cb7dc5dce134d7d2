//! Text Gantt chart of a bound, scheduled design.

use std::fmt::Write as _;

use pchls_cdfg::Cdfg;
use pchls_fulib::ModuleLibrary;
use pchls_sched::{Schedule, TimingMap};

use crate::binding::Binding;

/// Renders one row per functional-unit instance showing which operation
/// occupies it in every cycle — the classic schedule picture of HLS
/// papers.
///
/// Each cell shows the occupying operation's id (`.` = idle); multi-cycle
/// executions repeat their id. Unbound operations are skipped, so the
/// chart is also usable mid-synthesis.
///
/// # Example
///
/// ```
/// use pchls_bind::{bind_schedule, gantt};
/// use pchls_cdfg::benchmarks::hal;
/// use pchls_fulib::{paper_library, SelectionPolicy};
/// use pchls_sched::{asap, TimingMap};
///
/// # fn main() -> Result<(), pchls_bind::BindError> {
/// let g = hal();
/// let lib = paper_library();
/// let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
/// let s = asap(&g, &t);
/// let b = bind_schedule(&g, &lib, &s, &t)?;
/// let chart = gantt(&g, &lib, &b, &s, &t);
/// assert!(chart.contains("mult_par"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn gantt(
    graph: &Cdfg,
    library: &ModuleLibrary,
    binding: &Binding,
    schedule: &Schedule,
    timing: &TimingMap,
) -> String {
    let latency = schedule.latency(timing);
    let cell = graph
        .node_ids()
        .map(|id| id.to_string().len())
        .max()
        .unwrap_or(2)
        .max(2);
    let name_w = binding
        .instances()
        .iter()
        .map(|i| library.module(i.module()).name().len())
        .max()
        .unwrap_or(4)
        + 6;

    let mut s = String::new();
    let _ = write!(s, "{:<name_w$} |", "unit");
    for c in 0..latency {
        let _ = write!(s, "{c:>cell$}");
    }
    s.push('\n');
    let _ = writeln!(s, "{}", "-".repeat(name_w + 2 + latency as usize * cell));

    for (idx, inst) in binding.instances().iter().enumerate() {
        let label = format!("fu{idx} {}", library.module(inst.module()).name());
        let _ = write!(s, "{label:<name_w$} |");
        let mut row = vec![None; latency as usize];
        for &op in inst.ops() {
            for c in schedule.start(op)..schedule.finish(op, timing) {
                row[c as usize] = Some(op);
            }
        }
        for slot in row {
            match slot {
                Some(op) => {
                    let _ = write!(s, "{:>cell$}", op.to_string());
                }
                None => {
                    let _ = write!(s, "{:>cell$}", ".");
                }
            }
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::bind_schedule;
    use pchls_cdfg::benchmarks::hal;
    use pchls_fulib::{paper_library, SelectionPolicy};
    use pchls_sched::asap;

    fn setup() -> (Cdfg, ModuleLibrary, Binding, Schedule, TimingMap) {
        let g = hal();
        let lib = paper_library();
        let t = TimingMap::from_policy(&g, &lib, SelectionPolicy::Fastest);
        let s = asap(&g, &t);
        let b = bind_schedule(&g, &lib, &s, &t).unwrap();
        (g, lib, b, s, t)
    }

    #[test]
    fn one_row_per_instance() {
        let (g, lib, b, s, t) = setup();
        let chart = gantt(&g, &lib, &b, &s, &t);
        // Header + separator + one line per instance.
        assert_eq!(chart.lines().count(), 2 + b.instances().len());
    }

    #[test]
    fn every_op_appears_in_the_chart() {
        let (g, lib, b, s, t) = setup();
        let chart = gantt(&g, &lib, &b, &s, &t);
        for id in g.node_ids() {
            assert!(chart.contains(&id.to_string()), "{id} missing");
        }
    }

    #[test]
    fn multi_cycle_ops_occupy_their_whole_interval() {
        let (g, lib, b, s, t) = setup();
        let chart = gantt(&g, &lib, &b, &s, &t);
        // A 2-cycle multiplication shows its id twice in one row.
        let mul = g
            .nodes()
            .iter()
            .find(|n| n.kind() == pchls_cdfg::OpKind::Mul)
            .unwrap()
            .id();
        let row = chart
            .lines()
            .find(|l| l.contains(&mul.to_string()))
            .expect("mul row exists");
        assert!(row.matches(&mul.to_string()).count() >= 2);
    }
}
