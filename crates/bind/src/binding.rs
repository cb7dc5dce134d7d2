//! Functional-unit instances and the operation → instance map.

use std::fmt;

use serde::{Deserialize, Serialize};

use pchls_cdfg::{Cdfg, NodeId};
use pchls_fulib::{ModuleId, ModuleLibrary};
use pchls_sched::{Schedule, TimingMap};

use crate::error::BindError;

/// Identifier of one functional-unit instance within a [`Binding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub(crate) usize);

impl InstanceId {
    /// Raw index into the binding's instance list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fu{}", self.0)
    }
}

/// One allocated functional unit: a module type plus the operations that
/// share it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuInstance {
    module: ModuleId,
    ops: Vec<NodeId>,
}

impl FuInstance {
    /// The module type of this instance.
    #[must_use]
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// Operations bound to this instance, in binding order.
    #[must_use]
    pub fn ops(&self) -> &[NodeId] {
        &self.ops
    }
}

/// A (possibly partial) binding of operations to functional-unit
/// instances.
///
/// # Example
///
/// ```
/// use pchls_cdfg::benchmarks::hal;
/// use pchls_fulib::paper_library;
/// use pchls_bind::Binding;
///
/// let g = hal();
/// let lib = paper_library();
/// let mut b = Binding::new(g.len());
/// let adder = b.new_instance(lib.by_name("add").unwrap());
/// let an_add = g.nodes().iter()
///     .find(|n| n.kind() == pchls_cdfg::OpKind::Add).unwrap().id();
/// b.bind(an_add, adder);
/// assert_eq!(b.instance_of(an_add), Some(adder));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    instances: Vec<FuInstance>,
    op_to_instance: Vec<Option<InstanceId>>,
}

impl Binding {
    /// An empty binding over a graph of `len` operations.
    #[must_use]
    pub fn new(len: usize) -> Binding {
        Binding {
            instances: Vec::new(),
            op_to_instance: vec![None; len],
        }
    }

    /// Allocates a fresh instance of `module` and returns its id.
    pub fn new_instance(&mut self, module: ModuleId) -> InstanceId {
        let id = InstanceId(self.instances.len());
        self.instances.push(FuInstance {
            module,
            ops: Vec::new(),
        });
        id
    }

    /// Binds `op` to `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is already bound or `instance` does not exist —
    /// both indicate a synthesis-loop bug that must not be masked.
    pub fn bind(&mut self, op: NodeId, instance: InstanceId) {
        assert!(
            self.op_to_instance[op.index()].is_none(),
            "{op} is already bound"
        );
        self.instances[instance.0].ops.push(op);
        self.op_to_instance[op.index()] = Some(instance);
    }

    /// Removes the binding of `op`, if any. The instance survives even if
    /// it becomes empty (callers may rebind onto it).
    pub fn unbind(&mut self, op: NodeId) {
        if let Some(inst) = self.op_to_instance[op.index()].take() {
            self.instances[inst.0].ops.retain(|&o| o != op);
        }
    }

    /// Drops empty instances, renumbering the survivors.
    pub fn prune_empty(&mut self) {
        let mut remap: Vec<Option<InstanceId>> = Vec::with_capacity(self.instances.len());
        let mut kept = Vec::new();
        for inst in self.instances.drain(..) {
            if inst.ops.is_empty() {
                remap.push(None);
            } else {
                remap.push(Some(InstanceId(kept.len())));
                kept.push(inst);
            }
        }
        self.instances = kept;
        for slot in &mut self.op_to_instance {
            if let Some(old) = *slot {
                *slot = remap[old.0];
            }
        }
    }

    /// The instance `op` is bound to, if any.
    #[must_use]
    pub fn instance_of(&self, op: NodeId) -> Option<InstanceId> {
        self.op_to_instance[op.index()]
    }

    /// All instances in allocation order.
    #[must_use]
    pub fn instances(&self) -> &[FuInstance] {
        &self.instances
    }

    /// The instance with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this binding.
    #[must_use]
    pub fn instance(&self, id: InstanceId) -> &FuInstance {
        &self.instances[id.0]
    }

    /// Ids of all instances.
    pub fn instance_ids(&self) -> impl Iterator<Item = InstanceId> + '_ {
        (0..self.instances.len()).map(InstanceId)
    }

    /// Number of operations not yet bound.
    #[must_use]
    pub(crate) fn unbound_count(&self) -> usize {
        self.op_to_instance.iter().filter(|o| o.is_none()).count()
    }

    /// Whether every operation is bound.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.unbound_count() == 0
    }

    /// Total functional-unit area of the allocated instances.
    #[must_use]
    pub fn area(&self, library: &ModuleLibrary) -> u64 {
        self.instances
            .iter()
            .map(|i| u64::from(library.module(i.module).area()))
            .sum()
    }

    /// Validates a complete binding against a schedule:
    ///
    /// 1. every operation is bound,
    /// 2. each instance's module implements all its operations' kinds,
    /// 3. operations sharing an instance never overlap in time,
    /// 4. each operation's [`TimingMap`] entry matches its instance's
    ///    module latency and power.
    ///
    /// # Errors
    ///
    /// The first violated rule is reported as the corresponding
    /// [`BindError`].
    pub fn validate(
        &self,
        graph: &Cdfg,
        library: &ModuleLibrary,
        schedule: &Schedule,
        timing: &TimingMap,
    ) -> Result<(), BindError> {
        for id in graph.node_ids() {
            if self.instance_of(id).is_none() {
                return Err(BindError::Unbound(id));
            }
        }
        for (idx, inst) in self.instances.iter().enumerate() {
            let iid = InstanceId(idx);
            let module = library.module(inst.module);
            for &op in &inst.ops {
                if !module.implements(graph.node(op).kind()) {
                    return Err(BindError::KindMismatch {
                        node: op,
                        instance: iid,
                    });
                }
                let t = timing.of(op);
                if t.delay != module.latency() || t.power != module.power() {
                    return Err(BindError::TimingMismatch {
                        node: op,
                        instance: iid,
                    });
                }
            }
            let mut spans: Vec<(u32, u32, NodeId)> = inst
                .ops
                .iter()
                .map(|&op| (schedule.start(op), schedule.finish(op, timing), op))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(BindError::Overlap {
                        a: w[0].2,
                        b: w[1].2,
                        instance: iid,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::benchmarks::hal;
    use pchls_cdfg::OpKind;
    use pchls_fulib::paper_library;
    use pchls_sched::OpTiming;

    fn setup() -> (Cdfg, ModuleLibrary) {
        (hal(), paper_library())
    }

    #[test]
    fn bind_unbind_round_trip() {
        let (g, lib) = setup();
        let mut b = Binding::new(g.len());
        let inst = b.new_instance(lib.by_name("add").unwrap());
        let op = g
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Add)
            .unwrap()
            .id();
        b.bind(op, inst);
        assert_eq!(b.instance_of(op), Some(inst));
        assert_eq!(b.instance(inst).ops(), &[op]);
        b.unbind(op);
        assert_eq!(b.instance_of(op), None);
        assert!(b.instance(inst).ops().is_empty());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let (g, lib) = setup();
        let mut b = Binding::new(g.len());
        let inst = b.new_instance(lib.by_name("add").unwrap());
        let op = g
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Add)
            .unwrap()
            .id();
        b.bind(op, inst);
        b.bind(op, inst);
    }

    #[test]
    fn prune_renumbers_instances() {
        let (g, lib) = setup();
        let mut b = Binding::new(g.len());
        let add = lib.by_name("add").unwrap();
        let empty = b.new_instance(add);
        let used = b.new_instance(add);
        let op = g
            .nodes()
            .iter()
            .find(|n| n.kind() == OpKind::Add)
            .unwrap()
            .id();
        b.bind(op, used);
        let _ = empty;
        b.prune_empty();
        assert_eq!(b.instances().len(), 1);
        assert_eq!(b.instance_of(op), Some(InstanceId(0)));
    }

    #[test]
    fn area_sums_instance_modules() {
        let (g, lib) = setup();
        let mut b = Binding::new(g.len());
        b.new_instance(lib.by_name("mult_par").unwrap());
        b.new_instance(lib.by_name("add").unwrap());
        assert_eq!(b.area(&lib), 339 + 87);
    }

    #[test]
    fn validate_catches_overlap() {
        let (g, lib) = setup();
        let mut b = Binding::new(g.len());
        // Bind every op to its own fastest instance, except two adds that
        // share one adder while overlapping in time.
        let mut timing_entries = Vec::new();
        let mut starts = vec![0u32; g.len()];
        let adds: Vec<NodeId> = g
            .nodes()
            .iter()
            .filter(|n| n.kind() == OpKind::Add)
            .map(|n| n.id())
            .collect();
        let shared = b.new_instance(lib.by_name("add").unwrap());
        for n in g.nodes() {
            let mid = lib
                .select(n.kind(), pchls_fulib::SelectionPolicy::Fastest)
                .unwrap();
            let m = lib.module(mid);
            timing_entries.push(OpTiming {
                delay: m.latency(),
                power: m.power(),
            });
            if adds.contains(&n.id()) {
                b.bind(n.id(), shared);
            } else {
                let inst = b.new_instance(mid);
                b.bind(n.id(), inst);
            }
            starts[n.id().index()] = 5; // everyone at cycle 5: adds collide
        }
        let timing = TimingMap::from_entries(timing_entries);
        let schedule = Schedule::new(starts);
        let err = b.validate(&g, &lib, &schedule, &timing).unwrap_err();
        assert!(matches!(err, BindError::Overlap { .. }));
    }

    #[test]
    fn validate_catches_unbound() {
        let (g, lib) = setup();
        let b = Binding::new(g.len());
        let timing = TimingMap::from_policy(&g, &lib, pchls_fulib::SelectionPolicy::Fastest);
        let schedule = Schedule::new(vec![0; g.len()]);
        assert!(matches!(
            b.validate(&g, &lib, &schedule, &timing),
            Err(BindError::Unbound(_))
        ));
    }
}
