//! Module library container and queries.

use std::fmt;

use serde::{Deserialize, Serialize};

use pchls_cdfg::OpKind;

use crate::module::ModuleSpec;
use crate::selection::SelectionPolicy;

/// Index of a module within one [`ModuleLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ModuleId(usize);

impl ModuleId {
    /// Raw index into the library's module list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Errors from library validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibraryError {
    /// Two modules share a name.
    DuplicateModule(String),
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::DuplicateModule(n) => write!(f, "duplicate module name `{n}`"),
        }
    }
}

impl std::error::Error for LibraryError {}

/// An ordered collection of [`ModuleSpec`]s with unique names.
///
/// # Example
///
/// ```
/// use pchls_fulib::{ModuleLibrary, ModuleSpec, OpKind};
///
/// # fn main() -> Result<(), pchls_fulib::LibraryError> {
/// let lib = ModuleLibrary::new([
///     ModuleSpec::new("add", [OpKind::Add], 87, 1, 2.5),
///     ModuleSpec::new("io_in", [OpKind::Input], 16, 1, 0.2),
///     ModuleSpec::new("io_out", [OpKind::Output], 16, 1, 1.7),
/// ])?;
/// assert_eq!(lib.len(), 3);
/// assert!(lib.covers(OpKind::Add));
/// assert!(!lib.covers(OpKind::Mul));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleLibrary {
    modules: Vec<ModuleSpec>,
}

impl ModuleLibrary {
    /// Builds a library from modules, checking name uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::DuplicateModule`] if two modules share a
    /// name.
    pub fn new(
        modules: impl IntoIterator<Item = ModuleSpec>,
    ) -> Result<ModuleLibrary, LibraryError> {
        let modules: Vec<ModuleSpec> = modules.into_iter().collect();
        let mut names: Vec<&str> = modules.iter().map(ModuleSpec::name).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(LibraryError::DuplicateModule(w[0].to_owned()));
        }
        Ok(ModuleLibrary { modules })
    }

    /// Number of module types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// All modules in declaration order.
    #[must_use]
    pub fn modules(&self) -> &[ModuleSpec] {
        &self.modules
    }

    /// All module ids in declaration order.
    pub fn ids(&self) -> impl Iterator<Item = ModuleId> + '_ {
        (0..self.modules.len()).map(ModuleId)
    }

    /// The module with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this library.
    #[must_use]
    pub fn module(&self, id: ModuleId) -> &ModuleSpec {
        &self.modules[id.0]
    }

    /// Looks a module up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name() == name)
            .map(ModuleId)
    }

    /// Ids of all modules that implement `kind`, in declaration order.
    pub fn candidates(&self, kind: OpKind) -> impl Iterator<Item = ModuleId> + '_ {
        self.modules
            .iter()
            .enumerate()
            .filter(move |(_, m)| m.implements(kind))
            .map(|(i, _)| ModuleId(i))
    }

    /// Whether any module implements `kind`.
    #[must_use]
    pub fn covers(&self, kind: OpKind) -> bool {
        self.candidates(kind).next().is_some()
    }

    /// Selects the preferred module for `kind` under `policy`, or `None`
    /// if nothing implements it. Ties break toward earlier declaration.
    #[must_use]
    pub fn select(&self, kind: OpKind, policy: SelectionPolicy) -> Option<ModuleId> {
        self.candidates(kind)
            .min_by_key(|&id| policy.key(self.module(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> ModuleLibrary {
        crate::paper_library()
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = ModuleLibrary::new([
            ModuleSpec::new("a", [OpKind::Add], 1, 1, 1.0),
            ModuleSpec::new("a", [OpKind::Sub], 1, 1, 1.0),
        ])
        .unwrap_err();
        assert_eq!(err, LibraryError::DuplicateModule("a".to_owned()));
    }

    #[test]
    fn by_name_finds_modules() {
        let l = lib();
        let id = l.by_name("ALU").unwrap();
        assert_eq!(l.module(id).area(), 97);
        assert!(l.by_name("nope").is_none());
    }

    #[test]
    fn candidates_for_add_include_alu() {
        let l = lib();
        let names: Vec<&str> = l
            .candidates(OpKind::Add)
            .map(|id| l.module(id).name())
            .collect();
        assert_eq!(names, vec!["add", "ALU"]);
    }

    #[test]
    fn coverage_check() {
        let l = lib();
        assert!(OpKind::ALL.into_iter().all(|k| l.covers(k)));
        let partial = ModuleLibrary::new([ModuleSpec::new("a", [OpKind::Add], 1, 1, 1.0)]).unwrap();
        assert!(partial.covers(OpKind::Add));
        assert!(!partial.covers(OpKind::Mul));
    }
}
