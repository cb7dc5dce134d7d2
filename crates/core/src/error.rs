//! Synthesis error type.

use std::fmt;

use pchls_bind::BindError;
use pchls_cdfg::OpKind;
use pchls_sched::ScheduleError;

/// Errors raised by the synthesis algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// No power-feasible schedule exists within the latency bound — the
    /// `(T, P<)` point lies outside the feasible region of Figure 2.
    Infeasible {
        /// The underlying scheduling failure.
        cause: ScheduleError,
    },
    /// A scheduling step failed for a reason other than plain
    /// infeasibility.
    Schedule(ScheduleError),
    /// The produced binding failed validation (internal invariant).
    Bind(BindError),
    /// The module library has no module implementing an operation kind
    /// present in the graph (raised by `Engine::try_compile`).
    Uncovered {
        /// The operation kind without any implementing module.
        kind: OpKind,
    },
    /// A progress hook requested cancellation
    /// ([`std::ops::ControlFlow::Break`]); no design was produced.
    Cancelled,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Infeasible { cause } => {
                write!(f, "constraints are infeasible: {cause}")
            }
            SynthesisError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            SynthesisError::Bind(e) => write!(f, "binding failed: {e}"),
            SynthesisError::Uncovered { kind } => {
                write!(f, "library does not cover operation kind {kind}")
            }
            SynthesisError::Cancelled => write!(f, "synthesis cancelled by progress hook"),
        }
    }
}

impl std::error::Error for SynthesisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthesisError::Infeasible { cause } | SynthesisError::Schedule(cause) => Some(cause),
            SynthesisError::Bind(e) => Some(e),
            SynthesisError::Uncovered { .. } | SynthesisError::Cancelled => None,
        }
    }
}

impl From<BindError> for SynthesisError {
    fn from(e: BindError) -> Self {
        SynthesisError::Bind(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pchls_cdfg::NodeId;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SynthesisError>();
    }

    #[test]
    fn source_chains_to_cause() {
        use std::error::Error as _;
        let e = SynthesisError::Infeasible {
            cause: ScheduleError::Infeasible {
                node: NodeId::new(1),
                horizon: 5,
                max_power: 2.0,
            },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("infeasible"));
    }
}
