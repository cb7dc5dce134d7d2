//! Operation kinds supported by the CDFG.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The kind of computation a CDFG node performs.
///
/// The set mirrors the functional-unit library of the paper (Table 1):
/// arithmetic (`+`, `-`, `*`), comparison (`>`), and explicit primary
/// input (`imp`) / output (`xpt`) operations, which occupy `input` /
/// `output` modules for one cycle each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Two's-complement addition (`+`).
    Add,
    /// Two's-complement subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Greater-than comparison (`>`), producing `1` or `0`.
    ///
    /// A less-than comparison is expressed by swapping the operands.
    Comp,
    /// Primary input (the paper's `imp` operation).
    Input,
    /// Primary output (the paper's `xpt` operation).
    Output,
}

impl OpKind {
    /// All operation kinds, in a stable order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::Comp,
        OpKind::Input,
        OpKind::Output,
    ];

    /// The arithmetic/comparison kinds that execute on shareable
    /// functional units (everything except [`OpKind::Input`] and
    /// [`OpKind::Output`]).
    pub const COMPUTE: [OpKind; 4] = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Comp];

    /// Dense index of this kind: its position in [`OpKind::ALL`], for
    /// flat kind-keyed arenas.
    ///
    /// ```
    /// use pchls_cdfg::OpKind;
    /// for (i, k) in OpKind::ALL.iter().enumerate() {
    ///     assert_eq!(k.index(), i);
    /// }
    /// ```
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of data operands the operation consumes.
    ///
    /// ```
    /// use pchls_cdfg::OpKind;
    /// assert_eq!(OpKind::Add.arity(), 2);
    /// assert_eq!(OpKind::Input.arity(), 0);
    /// ```
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            OpKind::Input => 0,
            OpKind::Output => 1,
            OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Comp => 2,
        }
    }

    /// Whether the operation produces a value consumed by other nodes.
    #[must_use]
    pub fn produces_value(self) -> bool {
        !matches!(self, OpKind::Output)
    }

    /// Whether the operation is commutative in its operands.
    ///
    /// Used by binding to canonicalize interconnect estimation.
    #[must_use]
    pub(crate) fn is_commutative(self) -> bool {
        matches!(self, OpKind::Add | OpKind::Mul)
    }

    /// Whether this is a primary input or output rather than a computation.
    #[must_use]
    pub fn is_io(self) -> bool {
        matches!(self, OpKind::Input | OpKind::Output)
    }

    /// The operator mnemonic used by the textual CDFG format.
    #[must_use]
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Comp => "comp",
            OpKind::Input => "input",
            OpKind::Output => "output",
        }
    }

    /// Parses a mnemonic produced by `OpKind::mnemonic`.
    ///
    /// Also accepts the symbolic forms `+`, `-`, `*`, `>`.
    #[must_use]
    pub fn from_mnemonic(s: &str) -> Option<OpKind> {
        match s {
            "add" | "+" => Some(OpKind::Add),
            "sub" | "-" => Some(OpKind::Sub),
            "mul" | "*" => Some(OpKind::Mul),
            "comp" | ">" => Some(OpKind::Comp),
            "input" | "imp" => Some(OpKind::Input),
            "output" | "xpt" => Some(OpKind::Output),
            _ => None,
        }
    }

    /// The symbol used in the paper's Table 1 (`+`, `-`, `*`, `>`, `imp`,
    /// `xpt`).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Comp => ">",
            OpKind::Input => "imp",
            OpKind::Output => "xpt",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl std::str::FromStr for OpKind {
    type Err = crate::CdfgError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        OpKind::from_mnemonic(s).ok_or_else(|| crate::CdfgError::UnknownOp(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(OpKind::Input.arity(), 0);
        assert_eq!(OpKind::Output.arity(), 1);
        for k in OpKind::COMPUTE {
            assert_eq!(k.arity(), 2, "{k}");
        }
    }

    #[test]
    fn mnemonic_round_trip() {
        for k in OpKind::ALL {
            assert_eq!(OpKind::from_mnemonic(k.mnemonic()), Some(k));
        }
    }

    #[test]
    fn symbolic_forms_parse() {
        assert_eq!(OpKind::from_mnemonic("+"), Some(OpKind::Add));
        assert_eq!(OpKind::from_mnemonic("-"), Some(OpKind::Sub));
        assert_eq!(OpKind::from_mnemonic("*"), Some(OpKind::Mul));
        assert_eq!(OpKind::from_mnemonic(">"), Some(OpKind::Comp));
        assert_eq!(OpKind::from_mnemonic("imp"), Some(OpKind::Input));
        assert_eq!(OpKind::from_mnemonic("xpt"), Some(OpKind::Output));
        assert_eq!(OpKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn from_str_error_mentions_token() {
        let err = "frob".parse::<OpKind>().unwrap_err();
        assert!(err.to_string().contains("frob"));
    }

    #[test]
    fn commutativity() {
        assert!(OpKind::Add.is_commutative());
        assert!(OpKind::Mul.is_commutative());
        assert!(!OpKind::Sub.is_commutative());
        assert!(!OpKind::Comp.is_commutative());
    }

    #[test]
    fn io_classification() {
        assert!(OpKind::Input.is_io());
        assert!(OpKind::Output.is_io());
        for k in OpKind::COMPUTE {
            assert!(!k.is_io());
        }
    }

    #[test]
    fn only_output_produces_no_value() {
        for k in OpKind::ALL {
            assert_eq!(k.produces_value(), k != OpKind::Output);
        }
    }
}
