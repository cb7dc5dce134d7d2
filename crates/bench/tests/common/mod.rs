//! The golden-file check shared by the byte-pinned bench tests.

use std::path::PathBuf;

/// Asserts `actual` equals the committed `tests/golden/<file>` byte for
/// byte — or, with `PCHLS_BLESS_GOLDEN` set, rewrites the golden. Bless
/// only after an intentional output change.
pub fn assert_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file);
    if std::env::var_os("PCHLS_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed golden {}: {e}", path.display()));
    assert_eq!(
        actual, golden,
        "output diverged from the committed golden {file}; if (and only \
         if) the change is intentional, re-bless with PCHLS_BLESS_GOLDEN=1"
    );
}
