//! Value-change-dump (VCD) emission from datapath simulations.
//!
//! The trace records every register's value over time plus the per-cycle
//! power as a real-valued signal, viewable in GTKWave or any VCD reader.

use std::fmt::Write as _;

use pchls_cdfg::{Cdfg, CdfgError, Stimulus, Value};

use crate::netlist::Datapath;
use crate::sim::run_cycles;

/// A per-cycle trace of the datapath's architectural state.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    /// `snapshots[c][r]` = value of register `r` at the *end* of cycle
    /// `c` (`None` until first written).
    pub snapshots: Vec<Vec<Option<Value>>>,
    /// Power drawn in each cycle.
    pub power: Vec<f64>,
}

/// Simulates the datapath like [`simulate`](crate::simulate) but records
/// a full per-cycle register trace.
///
/// # Errors
///
/// Returns an error if `stimulus` lacks a value for some primary input.
pub fn trace(
    graph: &Cdfg,
    datapath: &Datapath,
    stimulus: &Stimulus,
) -> Result<Waveform, CdfgError> {
    let latency = datapath.latency();
    let mut snapshots: Vec<Vec<Option<Value>>> = Vec::with_capacity(latency as usize);
    let run = run_cycles(graph, datapath, stimulus, |cycle, registers| {
        // Snapshot `c` is the register file once boundary `c` commits;
        // the final boundary's commits fold into the last snapshot.
        if cycle < latency {
            snapshots.push(registers.to_vec());
        } else if let Some(last) = snapshots.last_mut() {
            last.copy_from_slice(registers);
        }
    })?;
    Ok(Waveform {
        snapshots,
        power: run.power_trace,
    })
}

/// Renders a [`Waveform`] as a VCD document with one 64-bit signal per
/// register and a real-valued `power` signal, one timestep per cycle.
#[must_use]
pub fn to_vcd(waveform: &Waveform, design_name: &str) -> String {
    let regs = waveform.snapshots.first().map_or(0, Vec::len);
    let mut s = String::new();
    let _ = writeln!(s, "$date generated by pchls $end");
    let _ = writeln!(s, "$timescale 1 ns $end");
    let _ = writeln!(s, "$scope module {} $end", sanitize(design_name));
    for r in 0..regs {
        let _ = writeln!(s, "$var wire 64 {} r{r} $end", ident(r));
    }
    let _ = writeln!(s, "$var real 64 {} power $end", ident(regs));
    let _ = writeln!(s, "$upscope $end");
    let _ = writeln!(s, "$enddefinitions $end");

    let mut last: Vec<Option<Value>> = vec![None; regs];
    let mut last_power = f64::NAN;
    for (cycle, snap) in waveform.snapshots.iter().enumerate() {
        let _ = writeln!(s, "#{cycle}");
        for (r, (&now, prev)) in snap.iter().zip(&last).enumerate() {
            if now != *prev {
                if let Some(v) = now {
                    let _ = writeln!(s, "b{:b} {}", v as u64, ident(r));
                }
            }
        }
        let p = waveform.power[cycle];
        if p != last_power {
            let _ = writeln!(s, "r{p} {}", ident(regs));
            last_power = p;
        }
        last.clone_from(snap);
    }
    let _ = writeln!(s, "#{}", waveform.snapshots.len());
    s
}

/// Short printable VCD identifier for signal `index`.
fn ident(index: usize) -> String {
    // Printable ASCII 33..=126, base-94 encoding.
    let mut n = index;
    let mut out = String::new();
    loop {
        out.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Datapath;
    use pchls_core::{Engine, SynthesisConstraints, SynthesisOptions};
    use pchls_fulib::paper_library;

    fn hal_trace() -> (Cdfg, Datapath, Waveform) {
        let g = pchls_cdfg::benchmarks::hal();
        let engine = Engine::new(paper_library());
        let compiled = engine.compile(&g);
        let d = engine
            .session(&compiled)
            .synthesize(
                SynthesisConstraints::new(17, 25.0),
                &SynthesisOptions::default(),
            )
            .unwrap();
        let dp = Datapath::build(&g, &d, engine.library());
        let mut stim = Stimulus::new();
        for (k, v) in [
            ("x", 2),
            ("y", 5),
            ("u", 7),
            ("dx", 3),
            ("a", 100),
            ("three", 3),
        ] {
            stim.insert(k.into(), v);
        }
        let w = trace(&g, &dp, &stim).unwrap();
        (g, dp, w)
    }

    #[test]
    fn trace_has_one_snapshot_per_cycle() {
        let (_, dp, w) = hal_trace();
        assert_eq!(w.snapshots.len(), dp.latency() as usize);
        assert_eq!(w.power.len(), dp.latency() as usize);
    }

    #[test]
    fn trace_power_matches_simulation() {
        let (g, dp, w) = hal_trace();
        let mut stim = Stimulus::new();
        for (k, v) in [
            ("x", 2),
            ("y", 5),
            ("u", 7),
            ("dx", 3),
            ("a", 100),
            ("three", 3),
        ] {
            stim.insert(k.into(), v);
        }
        let run = crate::simulate(&g, &dp, &stim).unwrap();
        assert_eq!(w.power, run.power_trace);
    }

    #[test]
    fn trace_ends_where_simulate_ends() {
        let engine = Engine::new(paper_library());
        for (g, latency, power) in [
            (pchls_cdfg::benchmarks::hal(), 17, 25.0),
            (pchls_cdfg::benchmarks::cosine(), 19, 40.0),
            (pchls_cdfg::benchmarks::elliptic(), 22, 60.0),
        ] {
            let compiled = engine.compile(&g);
            let design = engine
                .session(&compiled)
                .synthesize(
                    SynthesisConstraints::new(latency, power),
                    &SynthesisOptions::default(),
                )
                .unwrap();
            let dp = Datapath::build(&g, &design, engine.library());
            let stim: Stimulus = g
                .inputs()
                .zip(1..)
                .map(|(n, i)| (n.label().to_owned(), 7 * i - 30))
                .collect();
            let w = trace(&g, &dp, &stim).unwrap();
            let run = crate::simulate(&g, &dp, &stim).unwrap();
            let last: Vec<Value> = w
                .snapshots
                .last()
                .unwrap()
                .iter()
                .map(|v| v.unwrap_or(0))
                .collect();
            assert_eq!(last, run.registers, "{}", g.name());
            assert_eq!(w.power, run.power_trace, "{}", g.name());
        }
    }

    #[test]
    fn registers_become_defined_monotonically() {
        // Once written, a register stays defined (values may change).
        let (_, _, w) = hal_trace();
        let regs = w.snapshots[0].len();
        for r in 0..regs {
            let mut seen = false;
            for snap in &w.snapshots {
                if snap[r].is_some() {
                    seen = true;
                }
                if seen {
                    assert!(snap[r].is_some(), "register r{r} became undefined");
                }
            }
        }
    }

    #[test]
    fn vcd_is_well_formed() {
        let (_, dp, w) = hal_trace();
        let vcd = to_vcd(&w, "hal design");
        assert!(vcd.contains("$scope module hal_design $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert_eq!(
            vcd.matches("$var ").count(),
            dp.register_count() + 1,
            "one var per register plus power"
        );
        // Timestamps are monotone.
        let stamps: Vec<usize> = vcd
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|n| n.parse().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn idents_are_printable_and_unique() {
        let ids: Vec<String> = (0..500).map(ident).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        for id in &ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }
}
