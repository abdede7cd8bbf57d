//! Out-of-range CLI values print usage and exit 2 instead of panicking,
//! and a CSV that cannot be written fails the run.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
}

#[test]
fn chaos_rejects_too_few_nodes() {
    assert_rejected(&["chaos", "--nodes", "1"]);
    assert_rejected(&["chaos", "--nodes", "2"]);
}

#[test]
fn chaos_rejects_an_empty_horizon() {
    assert_rejected(&["chaos", "--horizon-ms", "0"]);
}

#[test]
fn chaos_rejects_an_empty_seed_range() {
    assert_rejected(&["chaos", "--seeds", "0"]);
    // The range would wrap past the last seed instead of running two.
    assert_rejected(&["chaos", "--seed", "18446744073709551615", "--seeds", "2"]);
}

#[test]
fn mc_rejects_an_empty_workload() {
    assert_rejected(&["mc", "--txns", "0"]);
}

#[test]
fn mc_rejects_zero_nodes() {
    assert_rejected(&["mc", "--nodes", "0"]);
    assert_rejected(&["mc", "--proto", "qstore", "--nodes", "2"]);
}

#[test]
fn mc_rejects_fewer_than_two_objects() {
    assert_rejected(&["mc", "--objects", "0"]);
    assert_rejected(&["mc", "--objects", "1"]);
}

#[test]
fn a_failed_csv_write_fails_the_run() {
    // A regular file as the parent "directory" makes every CSV write fail.
    for cmd in ["table8", "fig9"] {
        let file = std::env::temp_dir().join(format!("repro-csv-{}-{cmd}", std::process::id()));
        std::fs::write(&file, "").expect("temp file");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([cmd, "--quick", "--out"])
            .arg(file.join("results"))
            .output()
            .expect("repro runs");
        let _ = std::fs::remove_file(&file);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "repro {cmd}: {stderr}");
        assert!(stderr.contains("CSV write failed"), "repro {cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "repro {cmd}: {stderr}");
    }
}
