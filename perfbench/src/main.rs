//! `perfbench` — runs one workload of the QR-DTM reproduction and prints
//! its metrics by name and unit.
//!
//! ```text
//! perfbench --workload <bank|vacation-chk|hot-qstore|openloop> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! A pass simulates a fixed virtual window, so every virtual-time and
//! count metric is a pure function of the seed. Each pass runs in a fresh
//! child process (`--pass`), so passes share no heap, no high-water mark
//! and no simulator left behind by another. Passes repeat on the same seed
//! while another one fits in `--seconds` of wall time (there is always at
//! least one); wall-clock metrics are the median over passes, and every
//! exact metric must agree across them. Set-up is repeated in set-up-only
//! passes until there are [`SETUPS`] samples of it.
//!
//! With `--trace 1` untraced and traced passes alternate: the traced ones
//! give the per-layer metrics, and their exact metrics must equal the
//! untraced ones. Any failed check exits with code 1 and prints no result.
//! The result holds every metric of the run's section of `BENCHMARK.json`;
//! a per-layer metric of a layer the workload does not exercise is printed
//! as 0. The last line of standard output is the JSON result; before it,
//! `exact: {...}` lists every exact metric of the run and `zero: ...` the
//! per-layer metrics printed as 0 for that reason.

mod alloc;
mod family;
mod report;
mod timed;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{median, metrics_json, Kind, Metric, Report, Set};
use workloads::{Params, Pass, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up samples behind the reported `setup_s`.
const SETUPS: usize = 11;

/// What one process does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Run passes in child processes and print the result.
    Parent,
    /// Run one untraced pass and print it for the parent.
    Plain,
    /// Run one traced pass and print it for the parent.
    Traced,
    /// Set up, report the set-up time, and stop.
    Setup,
}

impl Role {
    fn flag(self) -> &'static str {
        match self {
            Role::Parent => "",
            Role::Plain => "plain",
            Role::Traced => "traced",
            Role::Setup => "setup",
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    role: Role,
}

const USAGE: &str = "usage: perfbench --workload <bank|vacation-chk|hot-qstore|openloop> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut role) = (false, Role::Parent);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--pass" => {
                role = [Role::Plain, Role::Traced, Role::Setup]
                    .into_iter()
                    .find(|r| r.flag() == value)
                    .ok_or(format!("unknown pass {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or(format!("unknown workload {name}"))?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        role,
    })
}

/// A pass as the lines a child prints for its parent. Values travel as
/// their bit patterns, so exact metrics arrive bit for bit.
fn encode(p: &Pass) -> String {
    let mut out = format!("setup {}\nattempted {}\n", p.setup_s.to_bits(), p.attempted);
    for m in &p.report.metrics {
        let kind = match m.kind {
            Kind::Exact => "exact",
            Kind::Wall => "wall",
        };
        let set = match m.set {
            Set::EndToEnd => "e2e",
            Set::Layer => "layer",
        };
        out += &format!(
            "metric {kind} {set} {} {} {}\n",
            m.unit,
            m.name,
            m.value.to_bits()
        );
    }
    out
}

fn decode(text: &str) -> Result<Pass, String> {
    let bad = |l: &str| format!("malformed pass line {l:?}");
    let mut pass = Pass {
        report: Report::default(),
        setup_s: f64::NAN,
        attempted: 0,
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let bits = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
        match f.as_slice() {
            ["setup", v] => pass.setup_s = f64::from_bits(bits(v)?),
            ["attempted", n] => pass.attempted = bits(n)?,
            ["metric", kind, set, unit, name, v] => {
                let value = f64::from_bits(bits(v)?);
                match (*kind, *set) {
                    ("exact", "e2e") => pass.report.e2e(name, value, unit),
                    ("wall", "e2e") => pass.report.e2e_wall(name, value, unit),
                    ("exact", "layer") => pass.report.layer(name, value, unit),
                    ("wall", "layer") => pass.report.layer_wall(name, value, unit),
                    _ => return Err(bad(line)),
                }
            }
            _ => return Err(bad(line)),
        }
    }
    if pass.setup_s.is_nan() {
        return Err("pass printed no set-up time".into());
    }
    Ok(pass)
}

/// Run one pass of `role` in a child process.
fn child(a: &Args, role: Role) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &a.name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .args(["--pass", role.flag()])
        .args(a.quick.then_some("--quick"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} pass failed ({})", role.flag(), out.status));
    }
    decode(&String::from_utf8_lossy(&out.stdout))
}

/// Every exact metric of `b` that `a` also reports must be bit-identical.
fn same_exact(a: &Report, b: &Report, what: &str) -> Result<(), String> {
    for m in b.metrics.iter().filter(|m| m.kind == Kind::Exact) {
        if let Some(n) = a.get(&m.name) {
            if n.value.to_bits() != m.value.to_bits() {
                return Err(format!(
                    "{what}: {} is {} in one pass and {} in another",
                    m.name, n.value, m.value
                ));
            }
        }
    }
    Ok(())
}

/// The `set` metrics of the first pass, wall metrics replaced by their
/// median over all passes.
fn aggregate(passes: &[Pass], set: Set) -> Vec<Metric> {
    passes[0]
        .report
        .metrics
        .iter()
        .filter(|m| m.set == set)
        .map(|m| {
            let mut m = m.clone();
            if m.kind == Kind::Wall {
                m.value = wall_metric(passes, &m.name);
            }
            m
        })
        .collect()
}

fn wall_metric(passes: &[Pass], name: &str) -> f64 {
    let xs: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.report.get(name).map(|m| m.value))
        .collect();
    median(&xs)
}

fn run(a: &Args) -> Result<(), String> {
    let start = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    // Repeat while another round of passes still fits in the budget.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(child(a, Role::Plain)?);
        if a.trace {
            traced.push(child(a, Role::Traced)?);
        }
        for p in plain.last().into_iter().chain(traced.last()) {
            if let Some(m) = p.report.get("wall_us_per_commit") {
                eprintln!("  pass {}: wall_us_per_commit {:.3}", plain.len(), m.value);
            }
        }
        let round = start.elapsed() / plain.len() as u32;
        if start.elapsed() + round > budget {
            break;
        }
    }
    let first = &plain[0].report;
    for p in &plain[1..] {
        same_exact(first, &p.report, "repeated untraced passes disagree")?;
    }
    for p in &traced {
        same_exact(first, &p.report, "tracing perturbed the simulation")?;
    }

    let mut exact: Vec<Metric> = first
        .metrics
        .iter()
        .filter(|m| m.kind == Kind::Exact)
        .cloned()
        .collect();
    let metrics = if a.trace {
        let mut ms = aggregate(&traced, Set::Layer);
        let plain_wall = wall_metric(&plain, "wall_us_per_commit");
        let traced_wall = wall_metric(&traced, "wall_us_per_commit");
        ms.push(Metric {
            name: "host.trace_overhead_pct".into(),
            value: 100.0 * (traced_wall / plain_wall - 1.0),
            unit: "%".into(),
            kind: Kind::Wall,
            set: Set::Layer,
        });
        let seen: Vec<String> = exact.iter().map(|m| m.name.clone()).collect();
        exact.extend(
            traced[0]
                .report
                .metrics
                .iter()
                .filter(|m| m.kind == Kind::Exact && !seen.contains(&m.name))
                .cloned(),
        );
        ms
    } else {
        let mut setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
        while setups.len() < SETUPS {
            setups.push(child(a, Role::Setup)?.setup_s);
        }
        let mut ms = aggregate(&plain, Set::EndToEnd);
        ms.insert(
            0,
            Metric {
                name: "setup_s".into(),
                value: median(&setups),
                unit: "s".into(),
                kind: Kind::Wall,
                set: Set::EndToEnd,
            },
        );
        ms
    };

    let section = if a.trace { "per_layer" } else { "end_to_end" };
    let (metrics, zero) = report::complete(metrics, section)?;

    eprintln!(
        "perfbench {} seed {}: {} passes in {:.1} s",
        a.name,
        a.seed,
        plain.len() + traced.len(),
        start.elapsed().as_secs_f64()
    );
    for m in &metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("exact: {}", metrics_json(exact.iter()));
    println!("zero: {}", zero.join(" "));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
        plain[0].attempted,
        metrics_json(metrics.iter())
    );
    Ok(())
}

/// One pass in this process, printed for the parent.
fn pass(a: &Args) -> Result<(), String> {
    let pass = (a.workload)(&Params {
        seed: a.seed,
        trace: a.role == Role::Traced,
        quick: a.quick,
        setup_only: a.role == Role::Setup,
    })?;
    print!("{}", encode(&pass));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.role == Role::Parent {
        run(&args)
    } else {
        pass(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {}: check failed: {e}", args.name);
            ExitCode::from(1)
        }
    }
}
