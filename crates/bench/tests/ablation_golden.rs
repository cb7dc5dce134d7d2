//! Byte-diffs `ablation_table`'s stdout against a committed golden.
//!
//! Its `-modsel`, `-interc` and `-backtr` columns synthesize the Figure 2
//! curves with one heuristic ingredient switched off — the only
//! paper-curve coverage of those option paths through the kernel. Any
//! change to a cell shows up here as a diff against
//! `tests/golden/ablation_table.txt`.
//!
//! To regenerate the golden after an *intentional* change, run:
//!
//! ```sh
//! PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-bench --test ablation_golden
//! ```

mod common;

use std::process::Command;

#[test]
fn ablation_table_stdout_matches_committed_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_ablation_table"))
        .output()
        .expect("run ablation_table");
    assert!(output.status.success(), "ablation_table failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");

    common::assert_golden("ablation_table.txt", &stdout);
}
