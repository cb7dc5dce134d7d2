//! A line-oriented textual exchange format for module libraries.
//!
//! ```text
//! # module <name> ops=<op,op,...> area=<u32> cycles=<u32> power=<decimal, at most 3 places>
//! library paper
//! module add   ops=+       area=87  cycles=1 power=2.5
//! module ALU   ops=+,-,>   area=97  cycles=1 power=2.5
//! module mult  ops=*       area=103 cycles=4 power=2.7
//! ```

use std::fmt::Write as _;

use pchls_cdfg::OpKind;

use crate::library::{LibraryError, ModuleLibrary};
use crate::module::ModuleSpec;

/// Errors from parsing the textual library format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLibraryError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseLibraryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLibraryError {}

impl From<LibraryError> for ParseLibraryError {
    fn from(e: LibraryError) -> Self {
        ParseLibraryError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Serializes a library to the textual format parsed by
/// [`parse_library`].
#[must_use]
pub fn write_library(library: &ModuleLibrary) -> String {
    let mut s = String::from("library pchls\n");
    for m in library.modules() {
        let ops: Vec<&str> = m.ops().iter().map(|k| k.symbol()).collect();
        let _ = writeln!(
            s,
            "module {} ops={} area={} cycles={} power={}",
            m.name(),
            ops.join(","),
            m.area(),
            m.latency(),
            crate::units(m.power())
        );
    }
    s
}

/// Parses the textual library format.
///
/// # Errors
///
/// Returns [`ParseLibraryError`] for malformed lines, unknown operation
/// symbols, or duplicate module names.
///
/// # Example
///
/// ```
/// let lib = pchls_fulib::paper_library();
/// let text = pchls_fulib::write_library(&lib);
/// let back = pchls_fulib::parse_library(&text)?;
/// assert_eq!(back, lib);
/// # Ok::<(), pchls_fulib::ParseLibraryError>(())
/// ```
pub fn parse_library(text: &str) -> Result<ModuleLibrary, ParseLibraryError> {
    let mut saw_header = false;
    let mut modules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let head = tok.next().expect("non-empty line");
        if !saw_header {
            if head != "library" {
                return Err(err(lineno, "expected `library <name>` header"));
            }
            saw_header = true;
            continue;
        }
        if head != "module" {
            return Err(err(lineno, format!("expected `module`, found `{head}`")));
        }
        let name = tok
            .next()
            .ok_or_else(|| err(lineno, "missing module name"))?;
        let mut ops: Option<Vec<OpKind>> = None;
        let mut area: Option<u32> = None;
        let mut cycles: Option<u32> = None;
        let mut power: Option<f64> = None;
        for field in tok {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| err(lineno, format!("expected key=value, found `{field}`")))?;
            match key {
                "ops" => {
                    let parsed: Result<Vec<OpKind>, _> = value
                        .split(',')
                        .map(|s| {
                            OpKind::from_mnemonic(s)
                                .ok_or_else(|| err(lineno, format!("unknown op `{s}`")))
                        })
                        .collect();
                    ops = Some(parsed?);
                }
                "area" => {
                    area = Some(
                        value
                            .parse()
                            .map_err(|_| err(lineno, format!("invalid area `{value}`")))?,
                    );
                }
                "cycles" => {
                    cycles = Some(
                        value
                            .parse()
                            .map_err(|_| err(lineno, format!("invalid cycle count `{value}`")))?,
                    );
                }
                "power" => {
                    power = Some(
                        value
                            .parse()
                            .map_err(|_| err(lineno, format!("invalid power `{value}`")))?,
                    );
                }
                other => return Err(err(lineno, format!("unknown field `{other}`"))),
            }
        }
        let ops = ops.ok_or_else(|| err(lineno, "missing ops="))?;
        let area = area.ok_or_else(|| err(lineno, "missing area="))?;
        let cycles = cycles.ok_or_else(|| err(lineno, "missing cycles="))?;
        let power = power.ok_or_else(|| err(lineno, "missing power="))?;
        if ops.is_empty() {
            return Err(err(lineno, "module implements no ops"));
        }
        if cycles == 0 {
            return Err(err(lineno, "cycles must be at least 1"));
        }
        if crate::quanta(power).is_none() {
            return Err(err(
                lineno,
                format!("power {power} is not a whole number of quanta (0.001 units)"),
            ));
        }
        modules.push(ModuleSpec::new(name, ops, area, cycles, power));
    }
    if !saw_header {
        return Err(err(0, "empty document"));
    }
    Ok(ModuleLibrary::new(modules)?)
}

fn err(line: usize, message: impl Into<String>) -> ParseLibraryError {
    ParseLibraryError {
        line,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_library;

    #[test]
    fn round_trip_paper_library() {
        let lib = paper_library();
        let text = write_library(&lib);
        let back = parse_library(&text).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# cmt\n\nlibrary t\n# another\nmodule a ops=+ area=1 cycles=1 power=0.5\n";
        let lib = parse_library(text).unwrap();
        assert_eq!(lib.len(), 1);
    }

    #[test]
    fn missing_header_reported() {
        let e = parse_library("module a ops=+ area=1 cycles=1 power=1\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn unknown_op_reported() {
        let e = parse_library("library t\nmodule a ops=%% area=1 cycles=1 power=1\n").unwrap_err();
        assert!(e.message.contains("%%"));
    }

    #[test]
    fn missing_field_reported() {
        let e = parse_library("library t\nmodule a ops=+ area=1 cycles=1\n").unwrap_err();
        assert!(e.message.contains("power"));
    }

    #[test]
    fn zero_cycles_rejected() {
        let e = parse_library("library t\nmodule a ops=+ area=1 cycles=0 power=1\n").unwrap_err();
        assert!(e.message.contains("cycles"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let text = "library t\nmodule a ops=+ area=1 cycles=1 power=1\nmodule a ops=- area=1 cycles=1 power=1\n";
        let e = parse_library(text).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn nan_and_off_lattice_powers_rejected() {
        for power in ["NaN", "-1", "2.5005"] {
            let text = format!("library t\n\nmodule a ops=+ area=1 cycles=1 power={power}\n");
            let e = parse_library(&text).unwrap_err();
            assert_eq!(e.line, 3, "{power}");
            assert!(e.message.contains("quanta"), "{}", e.message);
        }
    }

    #[test]
    fn unknown_field_rejected() {
        let e = parse_library("library t\nmodule a ops=+ area=1 cycles=1 power=1 volts=3\n")
            .unwrap_err();
        assert!(e.message.contains("volts"));
    }
}
