//! Force-directed scheduling (Paulin & Knight), a classical
//! time-constrained baseline that balances operation concurrency — and
//! hence implicitly both resource count and power — across the schedule.

use pchls_cdfg::{Cdfg, NodeId, Reachability};
use pchls_fulib::{ModuleId, ModuleLibrary};

use crate::error::ScheduleError;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

/// Schedules `graph` within `latency` cycles, choosing each operation's
/// start so that the *distribution graphs* (expected concurrency per
/// module type per cycle) stay as flat as possible.
///
/// Operations execute on the modules given by `modules` (one
/// [`ModuleId`] per node). The algorithm iteratively fixes the
/// (operation, start) pair with the least total force — self force plus
/// the force its window-shrinking exerts on direct predecessors and
/// successors — until every operation is fixed.
///
/// # Errors
///
/// Returns [`ScheduleError::LatencyExceeded`] if the critical path does
/// not fit in `latency`.
///
/// # Panics
///
/// Panics if `modules` is not one entry per node.
pub fn force_directed(
    graph: &Cdfg,
    library: &ModuleLibrary,
    modules: &[ModuleId],
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    assert_eq!(modules.len(), graph.len(), "one module per node required");
    // Transitive closure, computed once per call: every refit below
    // reduces to O(1) bitset membership tests on the fixed operation's
    // cones instead of re-walking the graph.
    let reach = &Reachability::new(graph);
    let _span = pchls_obs::span!("fds.schedule", "ops" => graph.len());
    let timing = TimingMap::from_modules(graph, library, modules);
    let n = graph.len();

    let mut fixed: Vec<Option<u32>> = vec![None; n];
    let (mut early, mut late) = windows(graph, &timing, latency, &fixed)?;
    // Distribution graphs per module type under the current windows — a
    // dense arena of one row per library module (`ModuleId`s are small
    // integers), maintained incrementally: fixing one operation only
    // shrinks the windows of its own ancestors/descendants, so each
    // iteration subtracts the old window contribution of exactly those
    // operations and adds the new one, instead of rebuilding every row
    // from scratch.
    let mut dg = distribution(
        graph,
        &timing,
        modules,
        library.len(),
        latency,
        &early,
        &late,
    );

    for _ in 0..n {
        // Candidate with minimal total force.
        let mut best: Option<(f64, NodeId, u32)> = None;
        for id in graph.node_ids() {
            if fixed[id.index()].is_some() {
                continue;
            }
            let m = modules[id.index()];
            let d = timing.delay(id);
            let (e, l) = (early[id.index()], late[id.index()]);
            for s in e..=l {
                let f = self_force(&dg[m.index()], e, l, d, s)
                    + neighbor_force(graph, &timing, modules, latency, &dg, &early, &late, id, s);
                if best.is_none_or(|(bf, _, _)| f < bf - 1e-12) {
                    best = Some((f, id, s));
                }
            }
        }
        let Some((_, id, s)) = best else { break };
        fixed[id.index()] = Some(s);
        refit_windows(
            graph, &timing, reach, latency, &fixed, &mut early, &mut late, modules, &mut dg, id,
        )?;
    }

    let starts = fixed
        .into_iter()
        .map(|s| s.expect("all ops fixed"))
        .collect();
    let schedule = Schedule::new(starts);
    schedule.validate(graph, &timing, Some(latency), None)?;
    Ok(schedule)
}

/// Incrementally updates the scheduling windows and distribution graphs
/// after `fixed_op` was pinned.
///
/// Only the fixed operation's reachability cone can change: its
/// descendants' early starts (forward pass restricted to nodes reachable
/// from it) and its ancestors' late starts (backward pass restricted to
/// nodes reaching it). Both cones come straight from the precomputed
/// [`Reachability`] bitsets — membership is one word test, and the
/// mass-move pass walks the set bits of the cone union — so no per-fix
/// graph traversal remains. Every operation whose window actually moved
/// has its old probability mass subtracted from its module's
/// distribution row and the new mass added — identical (up to float
/// associativity) to the full rebuild the serial implementation
/// performed each iteration.
#[allow(clippy::too_many_arguments)]
fn refit_windows(
    graph: &Cdfg,
    timing: &TimingMap,
    reach: &Reachability,
    latency: u32,
    fixed: &[Option<u32>],
    early: &mut [u32],
    late: &mut [u32],
    modules: &[ModuleId],
    dg: &mut [Vec<f64>],
    fixed_op: NodeId,
) -> Result<(), ScheduleError> {
    let n = graph.len();
    let fo = fixed_op.index();
    // Downward cone (descendants incl. the op itself) and upward cone
    // (ancestors incl. the op itself), as bitset rows.
    let desc = reach.descendant_words(fixed_op);
    let anc = reach.ancestor_words(fixed_op);
    let down = |i: usize| i == fo || Reachability::bit(desc, i);
    let up = |i: usize| i == fo || Reachability::bit(anc, i);

    // First-touch snapshot of each changed op's old window.
    let mut old_window: Vec<Option<(u32, u32)>> = vec![None; n];
    // Forward pass over the downward cone.
    for &id in graph.topological() {
        if !down(id.index()) {
            continue;
        }
        let ready = graph
            .operands(id)
            .iter()
            .map(|&p| early[p.index()] + timing.delay(p))
            .max()
            .unwrap_or(0);
        let new_e = fixed[id.index()].unwrap_or(ready);
        if new_e != early[id.index()] {
            old_window[id.index()].get_or_insert((early[id.index()], late[id.index()]));
            early[id.index()] = new_e;
        }
    }
    // Backward pass over the upward cone.
    for &id in graph.topological().iter().rev() {
        if !up(id.index()) {
            continue;
        }
        let deadline = graph
            .successors(id)
            .iter()
            .map(|&s| late[s.index()])
            .min()
            .unwrap_or(latency);
        let new_l =
            match fixed[id.index()] {
                Some(s) => s,
                None => deadline.checked_sub(timing.delay(id)).ok_or(
                    ScheduleError::LatencyExceeded {
                        latency: early[id.index()] + timing.delay(id),
                        bound: latency,
                    },
                )?,
            };
        if new_l != late[id.index()] {
            old_window[id.index()].get_or_insert((early[id.index()], late[id.index()]));
            late[id.index()] = new_l;
        }
    }
    // One walk over the set bits of the cone union covers both the
    // feasibility check and the probability-mass move (only cone members
    // can have a snapshotted old window).
    let mut cone: Vec<u64> = desc.to_vec();
    for (c, &a) in cone.iter_mut().zip(anc) {
        *c |= a;
    }
    cone[fo / 64] |= 1u64 << (fo % 64);
    for id in Reachability::iter_row(&cone) {
        if early[id.index()] > late[id.index()] {
            return Err(ScheduleError::LatencyExceeded {
                latency: early[id.index()] + timing.delay(id),
                bound: latency,
            });
        }
    }
    for id in Reachability::iter_row(&cone) {
        let Some((old_e, old_l)) = old_window[id.index()] else {
            continue;
        };
        let row = &mut dg[modules[id.index()].index()];
        accumulate(row, old_e, old_l, timing.delay(id), -1.0);
        accumulate(
            row,
            early[id.index()],
            late[id.index()],
            timing.delay(id),
            1.0,
        );
    }
    Ok(())
}

/// Constrained ASAP/ALAP windows with some operations pinned.
fn windows(
    graph: &Cdfg,
    timing: &TimingMap,
    latency: u32,
    fixed: &[Option<u32>],
) -> Result<(Vec<u32>, Vec<u32>), ScheduleError> {
    let n = graph.len();
    let mut early = vec![0u32; n];
    for &id in graph.topological() {
        let ready = graph
            .operands(id)
            .iter()
            .map(|&p| early[p.index()] + timing.delay(p))
            .max()
            .unwrap_or(0);
        early[id.index()] = match fixed[id.index()] {
            Some(s) => s, // trusted: set from a feasible window
            None => ready,
        };
    }
    let mut late = vec![0u32; n];
    for &id in graph.topological().iter().rev() {
        let deadline = graph
            .successors(id)
            .iter()
            .map(|&s| late[s.index()])
            .min()
            .unwrap_or(latency);
        let slot =
            match fixed[id.index()] {
                Some(s) => s,
                None => deadline.checked_sub(timing.delay(id)).ok_or(
                    ScheduleError::LatencyExceeded {
                        latency: early[id.index()] + timing.delay(id),
                        bound: latency,
                    },
                )?,
            };
        late[id.index()] = slot;
    }
    for id in graph.node_ids() {
        if early[id.index()] > late[id.index()] {
            return Err(ScheduleError::LatencyExceeded {
                latency: early[id.index()] + timing.delay(id),
                bound: latency,
            });
        }
    }
    Ok((early, late))
}

/// Distribution graph per module type: expected number of concurrently
/// executing operations of that type in each cycle. Dense arena — row
/// `m` of the result is the distribution of library module `m`, zero
/// for modules no operation uses.
fn distribution(
    graph: &Cdfg,
    timing: &TimingMap,
    modules: &[ModuleId],
    library_len: usize,
    latency: u32,
    early: &[u32],
    late: &[u32],
) -> Vec<Vec<f64>> {
    let mut dg = vec![vec![0.0; latency as usize]; library_len];
    for id in graph.node_ids() {
        let row = &mut dg[modules[id.index()].index()];
        accumulate(
            row,
            early[id.index()],
            late[id.index()],
            timing.delay(id),
            1.0,
        );
    }
    dg
}

/// Adds `weight / (l-e+1)` to every cycle covered by each candidate start
/// in `[e, l]` for an op of delay `d`.
fn accumulate(row: &mut [f64], e: u32, l: u32, d: u32, weight: f64) {
    let p = weight / f64::from(l - e + 1);
    for s in e..=l {
        for c in s..s + d {
            if let Some(cell) = row.get_mut(c as usize) {
                *cell += p;
            }
        }
    }
}

/// Classic self force of assigning start `s` to an op with window
/// `[e, l]` and delay `d` under distribution `dg`.
fn self_force(dg: &[f64], e: u32, l: u32, d: u32, s: u32) -> f64 {
    let p = 1.0 / f64::from(l - e + 1);
    let mut force = 0.0;
    for c in s..s + d {
        if let Some(&v) = dg.get(c as usize) {
            force += v;
        }
    }
    for cand in e..=l {
        for c in cand..cand + d {
            if let Some(&v) = dg.get(c as usize) {
                force -= p * v;
            }
        }
    }
    force
}

/// Force exerted on direct predecessors/successors by the window
/// shrinkage implied by fixing `id` at `s`.
#[allow(clippy::too_many_arguments)]
fn neighbor_force(
    graph: &Cdfg,
    timing: &TimingMap,
    modules: &[ModuleId],
    _latency: u32,
    dg: &[Vec<f64>],
    early: &[u32],
    late: &[u32],
    id: NodeId,
    s: u32,
) -> f64 {
    let mut force = 0.0;
    // Predecessors must finish by `s`: their late start caps at s - d_p.
    for &p in graph.operands(id) {
        let (e, l) = (early[p.index()], late[p.index()]);
        let dp = timing.delay(p);
        let new_l = l.min(s.saturating_sub(dp));
        if new_l != l && new_l >= e {
            force += window_shrink_force(&dg[modules[p.index()].index()], e, l, e, new_l, dp);
        }
    }
    // Successors cannot start before `s + d`.
    let fin = s + timing.delay(id);
    for &q in graph.successors(id) {
        let (e, l) = (early[q.index()], late[q.index()]);
        let new_e = e.max(fin);
        if new_e != e && new_e <= l {
            force += window_shrink_force(
                &dg[modules[q.index()].index()],
                e,
                l,
                new_e,
                l,
                timing.delay(q),
            );
        }
    }
    force
}

/// Change in Σ prob·DG when a window shrinks from `[e0,l0]` to `[e1,l1]`.
fn window_shrink_force(dg: &[f64], e0: u32, l0: u32, e1: u32, l1: u32, d: u32) -> f64 {
    let weighted = |e: u32, l: u32| -> f64 {
        let p = 1.0 / f64::from(l - e + 1);
        let mut sum = 0.0;
        for s in e..=l {
            for c in s..s + d {
                if let Some(&v) = dg.get(c as usize) {
                    sum += p * v;
                }
            }
        }
        sum
    };
    weighted(e1, l1) - weighted(e0, l0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap;
    use pchls_cdfg::benchmarks;
    use pchls_cdfg::OpKind;
    use pchls_fulib::{paper_library, SelectionPolicy};

    fn assignment(g: &Cdfg, lib: &ModuleLibrary) -> Vec<ModuleId> {
        g.nodes()
            .iter()
            .map(|n| lib.select(n.kind(), SelectionPolicy::Fastest).unwrap())
            .collect()
    }

    /// Max number of simultaneously executing ops of a kind.
    fn max_concurrency(g: &Cdfg, t: &TimingMap, s: &Schedule, kind: OpKind) -> usize {
        let latency = s.latency(t);
        (0..latency)
            .map(|c| {
                g.nodes()
                    .iter()
                    .filter(|n| n.kind() == kind && s.start(n.id()) <= c && c < s.finish(n.id(), t))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn fds_is_valid_on_all_benchmarks() {
        let lib = paper_library();
        for g in benchmarks::all() {
            let ms = assignment(&g, &lib);
            let t = TimingMap::from_modules(&g, &lib, &ms);
            let cp = asap(&g, &t).latency(&t);
            for slack in [0, 4] {
                let s = force_directed(&g, &lib, &ms, cp + slack).unwrap();
                s.validate(&g, &t, Some(cp + slack), None)
                    .unwrap_or_else(|e| panic!("{} (+{slack}): {e}", g.name()));
            }
        }
    }

    #[test]
    fn fds_balances_hal_multipliers() {
        // With 2 cycles of slack, FDS should need fewer concurrent
        // multipliers than ASAP (the textbook result on hal/diffeq).
        let lib = paper_library();
        let g = benchmarks::hal();
        let ms = assignment(&g, &lib);
        let t = TimingMap::from_modules(&g, &lib, &ms);
        let cp = asap(&g, &t).latency(&t);
        let greedy = max_concurrency(&g, &t, &asap(&g, &t), OpKind::Mul);
        let s = force_directed(&g, &lib, &ms, cp + 2).unwrap();
        let balanced = max_concurrency(&g, &t, &s, OpKind::Mul);
        assert!(
            balanced <= greedy,
            "FDS used {balanced} multipliers, ASAP {greedy}"
        );
    }

    #[test]
    fn infeasible_latency_is_reported() {
        let lib = paper_library();
        let g = benchmarks::hal();
        let ms = assignment(&g, &lib);
        let err = force_directed(&g, &lib, &ms, 4).unwrap_err();
        assert!(matches!(err, ScheduleError::LatencyExceeded { .. }));
    }
}
