//! The benchmark's own test: each workload runs briefly (`--quick`, a
//! tenth of every virtual window) twice on one seed and once on another.
//! Every exact metric must repeat on the same seed, the second seed must
//! reach the generated inputs. Each result must hold exactly the metrics of
//! its section of `BENCHMARK.json`, in their units, and the per-layer
//! metrics printed as 0 must be exactly those that `perfbench/metrics.json`
//! does not list for the workload.

use std::process::Command;

/// Stdout of one quick run; panics unless it exits 0 with a result.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--quick")
        .output()
        .expect("perfbench starts");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    stdout
}

fn exact_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("exact: "))
        .expect("an exact line")
}

/// `(name, unit)` of every metric in the result line.
fn printed(stdout: &str) -> Vec<(String, String)> {
    let last = stdout.lines().last().expect("a result line");
    let metrics = &last[last.find("\"metrics\": ").expect("metrics") + 11..];
    metrics
        .split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches("{\"");
            let name = entry.split('"').next().expect("a name").to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("a unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// `(name, unit)` of every metric declared in a section of
/// `BENCHMARK.json` (`end_to_end` or `per_layer`), in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{section}\"")).expect("section");
    let end = json[start..].find(']').expect("section end");
    json[start..start + end]
        .lines()
        .filter_map(|l| {
            let name = l.split("\"name\": \"").nth(1)?.split('"').next()?;
            let unit = l.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

/// The metrics on the `zero:` line.
fn zero_line(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("zero:"))
        .expect("a zero line")
        .split_whitespace()
        .map(String::from)
        .collect()
}

/// The line of `perfbench/metrics.json` that describes `name`.
fn described(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json");
    let json = std::fs::read_to_string(path).expect("metrics.json");
    json.lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{name}\": ")))
        .unwrap_or_else(|| panic!("{name} is not described in metrics.json"))
        .to_string()
}

fn check(workload: &str) {
    let traced = run(workload, 7, true);
    let again = run(workload, 7, true);
    assert_eq!(
        exact_line(&traced),
        exact_line(&again),
        "{workload}: exact metrics differ between two runs on one seed"
    );
    let other = run(workload, 8, true);
    assert_ne!(
        exact_line(&traced),
        exact_line(&other),
        "{workload}: a second seed changed no exact metric"
    );
    let plain = run(workload, 7, false);
    assert!(
        exact_line(&traced).starts_with(&exact_line(&plain)[..exact_line(&plain).len() - 1]),
        "{workload}: the untraced run's exact metrics differ from the traced run's"
    );
    for (out, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
        assert_eq!(
            printed(out),
            declared(section),
            "{workload}: the result does not hold exactly the {section} metrics"
        );
        let zero = zero_line(out);
        for (name, _) in printed(out) {
            let line = described(&name);
            let (reported, rest) = line.split_once("\"exact\": ").expect("an exact label");
            let listed = reported.contains(&format!("\"{workload}\""));
            assert_eq!(
                !listed,
                zero.contains(&name),
                "{workload}: {name} is printed as 0 unless metrics.json lists {workload} for it"
            );
            if !listed {
                continue;
            }
            let exact = exact_line(out).contains(&format!("\"{name}\": "));
            assert_eq!(
                rest.starts_with("true"),
                exact,
                "{workload}: metrics.json labels {name} wrongly as exact or not"
            );
        }
    }
}

#[test]
fn bank() {
    check("bank");
}

#[test]
fn vacation_chk() {
    check("vacation-chk");
}

#[test]
fn hot_qstore() {
    check("hot-qstore");
}

#[test]
fn openloop() {
    check("openloop");
}
