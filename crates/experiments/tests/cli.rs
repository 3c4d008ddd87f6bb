//! `run_experiments` argument handling: a malformed command line exits 2
//! with the usage line before any sweep runs, and writes no file.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` in a fresh empty directory, returning its
/// output and the directory (so a test can check nothing was written).
fn run(tag: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("run-experiments-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn run_experiments");
    (out, dir)
}

fn assert_usage_error(tag: &str, args: &[&str]) {
    let (out, dir) = run(tag, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: run_experiments"), "{args:?}: {stderr}");
    // Nothing ran: no table on stdout, no file in the working directory.
    assert!(out.stdout.is_empty(), "{args:?} ran a sweep");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read dir").flatten().collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_path_flag_without_a_value_is_a_usage_error() {
    assert_usage_error("json-bare", &["--json"]);
    assert_usage_error("md-bare", &["--quick", "--markdown"]);
}

#[test]
fn a_flag_where_the_path_belongs_is_a_usage_error() {
    // Used to write the JSON to a file named `--quick`.
    assert_usage_error("json-flag", &["--json", "--quick"]);
}

#[test]
fn an_unknown_argument_is_a_usage_error() {
    // Used to run the minutes-long full sweep.
    assert_usage_error("typo", &["--quik"]);
    assert_usage_error("positional", &["--quick", "out.json"]);
}
