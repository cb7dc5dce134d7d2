//! Byte-diffs every bench binary's output against committed goldens.
//!
//! Each binary regenerates one of the paper's tables or figures (or the
//! regression dashboard), and none of them times anything, so its
//! stdout is a pure function of the code. `figure2` also writes
//! `results/figure2.json`, pinned here as well. Every binary runs in a
//! fresh temporary directory, so nothing is written into the tree. Any
//! changed cell shows up as a diff against `tests/golden/<bin>.txt`
//! (and `tests/golden/figure2.json`).
//!
//! The `-modsel`, `-interc` and `-backtr` columns of `ablation_table`
//! synthesize the Figure 2 curves with one heuristic ingredient
//! switched off — the only paper-curve coverage of those option paths
//! through the kernel.
//!
//! To regenerate the goldens after an *intentional* change, run:
//!
//! ```sh
//! PCHLS_BLESS_GOLDEN=1 cargo test -p pchls-bench --test bin_goldens
//! ```

mod common;

use std::path::Path;
use std::process::Command;

/// Every bench binary, with its built executable.
const BINARIES: [(&str, &str); 6] = [
    ("figure1", env!("CARGO_BIN_EXE_figure1")),
    ("figure2", env!("CARGO_BIN_EXE_figure2")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("battery_life", env!("CARGO_BIN_EXE_battery_life")),
    ("suite", env!("CARGO_BIN_EXE_suite")),
    ("ablation_table", env!("CARGO_BIN_EXE_ablation_table")),
];

/// Runs `exe` with `dir` as its working directory and returns its
/// stdout.
fn stdout_in(dir: &Path, name: &str, exe: &str) -> String {
    let output = Command::new(exe)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("run {name}: {e}"));
    assert!(output.status.success(), "{name} failed: {output:?}");
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn bench_binary_outputs_match_committed_goldens() {
    for (name, exe) in BINARIES {
        let dir =
            std::env::temp_dir().join(format!("pchls-bin-goldens-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create run dir");
        let stdout = stdout_in(&dir, name, exe);
        let json = std::fs::read_to_string(dir.join("results").join("figure2.json")).ok();
        std::fs::remove_dir_all(&dir).expect("remove run dir");

        common::assert_golden(&format!("{name}.txt"), &stdout);
        if name == "figure2" {
            let json = json.expect("figure2 writes results/figure2.json");
            common::assert_golden("figure2.json", &json);
        }
    }
}
