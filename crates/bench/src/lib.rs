//! # qrdtm-bench — harness regenerating every table and figure
//!
//! [`harness`] holds one function per experiment (Figs. 5, 6, 7, 9, 10,
//! Table 8, plus the ablations DESIGN.md calls out); [`table`] renders
//! results as aligned text and CSV, and `repro perf` prints its BENCH
//! reports through one typed JSON writer. The `repro` binary is the
//! command-line front end; the Criterion benches sample representative
//! configurations of the same harness.

#![warn(missing_docs)]

pub mod chaos_cli;
mod coverage;
pub mod harness;
mod json;
pub mod mc_cli;
pub mod perf_cli;
pub mod table;

/// Shrunken configurations for the Criterion benches: same protocols and
/// workloads as the paper grid, but 13 nodes and a short virtual window so
/// a sample takes fractions of a wall-second.
pub mod quick {
    use qrdtm_core::{DtmConfig, LatencySpec, NestingMode};
    use qrdtm_sim::SimDuration;
    use qrdtm_workloads::{Benchmark, RunSpec, WorkloadParams};

    /// 13-node cluster with the paper's latency profile.
    pub fn cfg(mode: NestingMode) -> DtmConfig {
        DtmConfig {
            nodes: 13,
            mode,
            read_level: 1,
            seed: crate::harness::SEED,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            ..Default::default()
        }
    }

    /// A short run of `bench` with the given workload shape.
    pub fn spec(bench: Benchmark, params: WorkloadParams) -> RunSpec {
        RunSpec {
            bench,
            params,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(2),
            clients_per_node: 1,
            failures: 0,
        }
    }
}

use std::path::PathBuf;

/// Print a [`harness::Figure`] as text tables and write one CSV per group.
pub fn emit_figure(fig: &harness::Figure, out_dir: Option<&PathBuf>) -> std::io::Result<()> {
    for group in &fig.groups {
        let mut headers = vec![fig.x_label.clone()];
        headers.extend(fig.series.iter().cloned());
        let rows: Vec<Vec<String>> = group
            .rows
            .iter()
            .map(|(x, ys)| {
                let mut row = vec![table::f(*x)];
                row.extend(ys.iter().map(|y| table::f(*y)));
                row
            })
            .collect();
        println!("## {} — {} (throughput, txn/s)\n", fig.name, group.title);
        println!("{}", table::render(&headers, &rows));
        if let Some(dir) = out_dir {
            let fname = format!(
                "{}_{}.csv",
                fig.name,
                group.title.to_lowercase().replace([' ', '%'], "_")
            );
            table::write_csv(&dir.join(fname), &headers, &rows)?;
        }
    }
    Ok(())
}
