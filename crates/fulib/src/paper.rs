//! The functional-unit library of the paper (Table 1).

use pchls_cdfg::OpKind;

use crate::library::ModuleLibrary;
use crate::module::ModuleSpec;

/// Table 1 of the paper, verbatim:
///
/// | Module      | Oprs      | Area | Clk-cyc. | P   |
/// |-------------|-----------|------|----------|-----|
/// | add         | {+}       | 87   | 1        | 2.5 |
/// | sub         | {−}       | 87   | 1        | 2.5 |
/// | comp        | {>}       | 8    | 1        | 2.5 |
/// | ALU         | {+,−,>}   | 97   | 1        | 2.5 |
/// | mult_ser    | {∗}       | 103  | 4        | 2.7 |
/// | mult_par    | {∗}       | 339  | 2        | 8.1 |
/// | input (imp) | {imp}     | 16   | 1        | 0.2 |
/// | output (xpt)| {xpt}     | 16   | 1        | 1.7 |
///
/// ```
/// let lib = pchls_fulib::paper_library();
/// assert_eq!(lib.len(), 8);
/// assert_eq!(lib.module(lib.by_name("mult_par").unwrap()).area(), 339);
/// ```
#[must_use]
pub fn paper_library() -> ModuleLibrary {
    ModuleLibrary::new([
        ModuleSpec::new("add", [OpKind::Add], 87, 1, 2.5),
        ModuleSpec::new("sub", [OpKind::Sub], 87, 1, 2.5),
        ModuleSpec::new("comp", [OpKind::Comp], 8, 1, 2.5),
        ModuleSpec::new("ALU", [OpKind::Add, OpKind::Sub, OpKind::Comp], 97, 1, 2.5),
        ModuleSpec::new("mult_ser", [OpKind::Mul], 103, 4, 2.7),
        ModuleSpec::new("mult_par", [OpKind::Mul], 339, 2, 8.1),
        ModuleSpec::new("input", [OpKind::Input], 16, 1, 0.2),
        ModuleSpec::new("output", [OpKind::Output], 16, 1, 1.7),
    ])
    .expect("paper library has unique names")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_exact() {
        let l = paper_library();
        let rows: Vec<(&str, u32, u32, u64)> = l
            .modules()
            .iter()
            .map(|m| (m.name(), m.area(), m.latency(), m.power()))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("add", 87, 1, 2500),
                ("sub", 87, 1, 2500),
                ("comp", 8, 1, 2500),
                ("ALU", 97, 1, 2500),
                ("mult_ser", 103, 4, 2700),
                ("mult_par", 339, 2, 8100),
                ("input", 16, 1, 200),
                ("output", 16, 1, 1700),
            ]
        );
    }

    #[test]
    fn alu_implements_three_kinds() {
        let l = paper_library();
        let alu = l.module(l.by_name("ALU").unwrap());
        assert!([OpKind::Add, OpKind::Sub, OpKind::Comp]
            .into_iter()
            .all(|k| alu.implements(k)));
        assert!(!alu.implements(OpKind::Mul));
    }

    #[test]
    fn library_covers_every_op_kind() {
        let lib = paper_library();
        assert!(OpKind::ALL.into_iter().all(|k| lib.covers(k)));
    }
}
