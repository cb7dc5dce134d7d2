//! Binding error type.

use std::fmt;

use pchls_cdfg::NodeId;

use crate::binding::InstanceId;

/// Errors raised by binding construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BindError {
    /// An operation is not bound to any instance.
    Unbound(NodeId),
    /// An instance's module cannot execute an operation bound to it.
    KindMismatch {
        /// The offending operation.
        node: NodeId,
        /// The instance it is bound to.
        instance: InstanceId,
    },
    /// Two operations on one instance execute in overlapping cycles.
    Overlap {
        /// First operation.
        a: NodeId,
        /// Second operation.
        b: NodeId,
        /// The shared instance.
        instance: InstanceId,
    },
    /// An operation's scheduled timing disagrees with its instance's
    /// module (delay or power mismatch).
    TimingMismatch {
        /// The offending operation.
        node: NodeId,
        /// The instance it is bound to.
        instance: InstanceId,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Unbound(n) => write!(f, "operation {n} is not bound to any instance"),
            BindError::KindMismatch { node, instance } => {
                write!(f, "instance {instance} cannot execute operation {node}")
            }
            BindError::Overlap { a, b, instance } => {
                write!(f, "operations {a} and {b} overlap on instance {instance}")
            }
            BindError::TimingMismatch { node, instance } => write!(
                f,
                "operation {node} is scheduled with timing different from instance {instance}"
            ),
        }
    }
}

impl std::error::Error for BindError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BindError>();
    }

    #[test]
    fn display_names_participants() {
        let e = BindError::Overlap {
            a: NodeId::new(1),
            b: NodeId::new(2),
            instance: InstanceId(0),
        };
        let s = e.to_string();
        assert!(s.contains("n1") && s.contains("n2") && s.contains("fu0"));
    }
}
