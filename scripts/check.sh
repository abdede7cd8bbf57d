#!/usr/bin/env bash
# Tier-1 gate: run this before every PR. Fails fast on the first broken
# stage — build, tests, formatting, lints — in that order, so the cheapest
# signal that something is wrong arrives first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release --locked"
cargo build --workspace --release --locked

echo "==> perfbench build (the benchmark compiles against the current crate APIs)"
cargo build --release --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo test --workspace --locked"
cargo test --quiet --workspace --locked

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> figure artifacts (repro all reproduces results/ and results_full.txt byte for byte)"
rm -rf target/results
cargo run --quiet --release -p qrdtm-bench -- all --out target/results >target/results_full.txt
diff -r results target/results
diff results_full.txt target/results_full.txt

echo "==> chaos smoke (fault injection + invariant checks, incl. qstore batch atomicity)"
# Each smoke suite exits nonzero on any invariant violation and on any
# coverage shortfall (an arm that did not run, a counter that never fired).
cargo run --quiet --release -p qrdtm-bench -- chaos --smoke

echo "==> chaos detector smoke (self-healing membership, no oracle)"
cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --detector

echo "==> chaos amnesia smoke (durable replicas, WAL replay + quorum repair)"
cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --amnesia

echo "==> chaos overload smoke (open-loop surges, admission control, retry budgets)"
cargo run --quiet --release -p qrdtm-bench -- chaos --smoke --overload

echo "==> mc smoke (bounded schedule exploration + checker validation)"
cargo run --quiet --release -p qrdtm-bench -- mc --smoke

echo "==> perf smoke (wall-clock baseline, TL2 backend, BENCH json)"
# The CLI exits nonzero on a par serializability violation, an overload
# goodput collapse or a wheel-vs-heap regression, and writes
# BENCH_wheel_vs_heap.json next to the report.
perf_json="${PERF_OUT:-target/BENCH_smoke.json}"
cargo run --quiet --release -p qrdtm-bench -- perf --quick --out "$perf_json"

echo "ok: all tier-1 checks passed"
