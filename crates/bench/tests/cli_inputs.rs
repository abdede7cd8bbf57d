//! Out-of-range CLI values print usage and exit 2 instead of panicking.

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
fn mc_rejects_zero_nodes() {
    assert_rejected(&["mc", "--nodes", "0"]);
    assert_rejected(&["mc", "--proto", "qstore", "--nodes", "2"]);
}

#[test]
fn mc_rejects_fewer_than_two_objects() {
    assert_rejected(&["mc", "--objects", "0"]);
    assert_rejected(&["mc", "--objects", "1"]);
}
