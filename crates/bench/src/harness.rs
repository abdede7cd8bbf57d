//! Experiment harness: one function per table/figure of the paper.
//!
//! Each function sweeps the paper's parameter grid through one
//! `Sweep`, runs every configuration (in parallel across OS threads —
//! each simulation is single-threaded and deterministic), and returns
//! structured rows that the `repro` binary prints.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_core::{Cluster, DtmConfig, LatencySpec, NestingMode};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::SimDuration;
use qrdtm_workloads::{run, run_bank, BankSpec, Benchmark, RunResult, RunSpec, WorkloadParams};

/// Base RNG seed for every experiment (results are deterministic given it).
pub const SEED: u64 = 42;

/// Run every input through `f` on a pool of OS threads, preserving order.
///
/// If `f` panics, the panic is re-raised on the caller's thread with the
/// **index of the offending input** in the message, so a single diverging
/// sweep cell names its configuration instead of dying as an anonymous
/// worker. When several inputs panic, the lowest index wins.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    let inputs: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = inputs[i]
                    .lock()
                    .expect("input lock")
                    .take()
                    .expect("each input taken once");
                match catch_unwind(AssertUnwindSafe(|| f(input))) {
                    Ok(out) => slots.lock().expect("slot lock")[i] = Some(out),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|m| (*m).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        let mut fail = failure.lock().expect("failure lock");
                        match &mut *fail {
                            Some((first, _)) if *first <= i => {}
                            other => *other = Some((i, msg)),
                        }
                        // Stop handing out further work; the sweep is dead.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some((i, msg)) = failure.into_inner().expect("failure lock") {
        panic!("parallel_map: worker panicked on input #{i}: {msg}");
    }
    slots
        .into_inner()
        .expect("slot lock")
        .into_iter()
        .map(|o| o.expect("all slots filled"))
        .collect()
}

/// The paper-testbed cluster configuration for a mode (40 nodes, ~30 ms
/// RTT).
pub fn paper_cfg(mode: NestingMode) -> DtmConfig {
    DtmConfig {
        nodes: 40,
        mode,
        read_level: 1,
        seed: SEED,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    }
}

/// Default workload shape for a benchmark (the fixed axes of each sweep).
pub fn default_params(bench: Benchmark) -> WorkloadParams {
    let objects = match bench {
        Benchmark::Vacation => 64,
        Benchmark::SList => 512,
        _ => 256,
    };
    WorkloadParams {
        read_pct: 50,
        calls: 3,
        objects,
    }
}

fn windows(quick: bool) -> (SimDuration, SimDuration) {
    if quick {
        (SimDuration::from_secs(1), SimDuration::from_secs(5))
    } else {
        (SimDuration::from_secs(2), SimDuration::from_secs(20))
    }
}

/// A figure: one group per benchmark, one series per protocol/mode.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id, e.g. "fig5".
    pub name: String,
    /// X-axis label.
    pub x_label: String,
    /// Series names in column order.
    pub series: Vec<String>,
    /// One group per sub-figure (benchmark).
    pub groups: Vec<FigureGroup>,
}

/// One sub-figure: rows of `(x, one throughput per series)`.
#[derive(Clone, Debug)]
pub struct FigureGroup {
    /// Sub-figure title (benchmark name).
    pub title: String,
    /// `(x, throughput per series)` rows.
    pub rows: Vec<(f64, Vec<f64>)>,
}

/// The run shape every QR experiment but Fig. 10 uses: one closed-loop
/// client per node, no failures, the quick or full window.
fn spec(quick: bool, bench: Benchmark, params: WorkloadParams) -> RunSpec {
    let (warmup, duration) = windows(quick);
    RunSpec {
        bench,
        params,
        warmup,
        duration,
        clients_per_node: 1,
        failures: 0,
    }
}

/// The one experiment sweep behind every figure, Table 8 and the
/// ablations: a `groups × xs × series` grid whose cells all run through
/// [`parallel_map`], in grid order.
struct Sweep<'a, G, X, S> {
    groups: &'a [G],
    xs: &'a [X],
    series: &'a [S],
}

impl<G, X, S> Sweep<'_, G, X, S>
where
    G: Copy + Send + Sync,
    X: Copy + Send + Sync,
    S: Copy + Send + Sync,
{
    /// Run `cell` on every grid cell: `rows[group][x][series]`.
    fn rows<O: Send>(&self, cell: impl Fn(G, X, S) -> O + Sync) -> Vec<Vec<Vec<O>>> {
        let mut cells = Vec::new();
        for &g in self.groups {
            for &x in self.xs {
                for &s in self.series {
                    cells.push((g, x, s));
                }
            }
        }
        let mut out = parallel_map(cells, |(g, x, s)| cell(g, x, s)).into_iter();
        self.groups
            .iter()
            .map(|_| {
                self.xs
                    .iter()
                    .map(|_| out.by_ref().take(self.series.len()).collect())
                    .collect()
            })
            .collect()
    }

    /// The grid's throughputs as figure `name`: one group per `title`d
    /// group, one row per `x`, one column per series.
    fn figure(
        &self,
        name: &str,
        x_label: &str,
        title: fn(G) -> String,
        x: fn(X) -> f64,
        cell: impl Fn(G, X, S) -> f64 + Sync,
    ) -> Figure
    where
        S: Display,
    {
        let groups = self
            .groups
            .iter()
            .zip(self.rows(cell))
            .map(|(&g, rows)| FigureGroup {
                title: title(g),
                rows: self.xs.iter().map(|&v| x(v)).zip(rows).collect(),
            })
            .collect();
        Figure {
            name: name.into(),
            x_label: x_label.into(),
            series: self.series.iter().map(S::to_string).collect(),
            groups,
        }
    }
}

/// Fig. 5: throughput vs read-workload percentage (0–100).
pub fn fig5(quick: bool) -> Figure {
    let pcts: Vec<u32> = if quick {
        vec![0, 25, 50, 75, 100]
    } else {
        (0..=10).map(|i| i * 10).collect()
    };
    let grid = Sweep {
        groups: &Benchmark::FIGURE_SET,
        xs: &pcts,
        series: &NestingMode::ALL,
    };
    let cell = |bench, read_pct, mode| {
        let params = WorkloadParams {
            read_pct,
            ..default_params(bench)
        };
        run(paper_cfg(mode), &spec(quick, bench, params)).throughput
    };
    grid.figure("fig5", "read %", bench_title, f64::from, cell)
}

/// Fig. 6: throughput vs number of nested calls (1–5).
pub fn fig6(quick: bool) -> Figure {
    let calls: Vec<usize> = if quick {
        vec![1, 3, 5]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let grid = Sweep {
        groups: &Benchmark::FIGURE_SET,
        xs: &calls,
        series: &NestingMode::ALL,
    };
    let cell = |bench, calls, mode| {
        let params = WorkloadParams {
            calls,
            ..default_params(bench)
        };
        run(paper_cfg(mode), &spec(quick, bench, params)).throughput
    };
    grid.figure("fig6", "nested calls", bench_title, |c| c as f64, cell)
}

/// Fig. 7: throughput vs number of objects.
pub fn fig7(quick: bool) -> Figure {
    let objects: Vec<u64> = if quick {
        vec![12, 48, 192]
    } else {
        vec![12, 24, 48, 96, 192]
    };
    let grid = Sweep {
        groups: &Benchmark::FIGURE_SET,
        xs: &objects,
        series: &NestingMode::ALL,
    };
    let cell = |bench, objects, mode| {
        let params = WorkloadParams {
            objects,
            ..default_params(bench)
        };
        run(paper_cfg(mode), &spec(quick, bench, params)).throughput
    };
    grid.figure("fig7", "objects", bench_title, |o| o as f64, cell)
}

fn bench_title(bench: Benchmark) -> String {
    bench.name().into()
}

/// One row of Table 8: percentage change of QR-CN and QR-CHK vs flat in
/// abort rate and per-commit messages.
#[derive(Clone, Debug)]
pub struct Table8Row {
    /// Benchmark name.
    pub bench: String,
    /// Δ abort rate of QR-CN vs flat, percent.
    pub cn_abort_pct: f64,
    /// Δ abort rate of QR-CHK vs flat, percent.
    pub chk_abort_pct: f64,
    /// Δ per-commit messages of QR-CN vs flat, percent.
    pub cn_msg_pct: f64,
    /// Δ per-commit messages of QR-CHK vs flat, percent.
    pub chk_msg_pct: f64,
    /// Raw results per mode for EXPERIMENTS.md (flat, closed, chk).
    pub raw: Vec<RunResult>,
}

/// Table 8: abort-rate and message deltas at the default workload shape.
pub fn table8(quick: bool) -> Vec<Table8Row> {
    let grid = Sweep {
        groups: &Benchmark::FIGURE_SET,
        xs: &[()],
        series: &NestingMode::ALL,
    };
    let rows = grid
        .rows(|bench, (), mode| run(paper_cfg(mode), &spec(quick, bench, default_params(bench))));
    let msgs_per_commit = |r: &RunResult| r.messages as f64 / r.commits.max(1) as f64;
    let abort_rate = |r: &RunResult| r.stats.abort_rate();
    let delta = |a: f64, b: f64| {
        if b.abs() < 1e-9 {
            0.0
        } else {
            (a - b) / b * 100.0
        }
    };
    Benchmark::FIGURE_SET
        .iter()
        .zip(rows.into_iter().flatten())
        .map(|(bench, raw)| {
            // `NestingMode::ALL` order: flat, closed, checkpoint.
            let (flat, cn, chk) = (&raw[0], &raw[1], &raw[2]);
            Table8Row {
                bench: bench.name().to_string(),
                cn_abort_pct: delta(abort_rate(cn), abort_rate(flat)),
                chk_abort_pct: delta(abort_rate(chk), abort_rate(flat)),
                cn_msg_pct: delta(msgs_per_commit(cn), msgs_per_commit(flat)),
                chk_msg_pct: delta(msgs_per_commit(chk), msgs_per_commit(flat)),
                raw,
            }
        })
        .collect()
}

/// Fig. 9: QR-DTM vs HyFlow (TFA) vs Decent-STM vs Q-Store on Bank,
/// sweeping cluster size at 50 % and 90 % read mixes. Q-Store is the
/// batching outlier: planner-ordered epochs trade commit latency for
/// abort-free throughput under contention.
pub fn fig9(quick: bool) -> Figure {
    let nodes: Vec<usize> = if quick {
        vec![8, 20, 40]
    } else {
        vec![4, 8, 13, 20, 28, 40]
    };
    let (warmup, duration) = windows(quick);
    let grid = Sweep {
        groups: &[50u32, 90],
        xs: &nodes,
        series: &["QR-DTM", "HyFlow", "Decent-STM", "Q-Store"],
    };
    let cell = |read_pct, n, family| {
        let spec = BankSpec {
            accounts: 48,
            read_pct,
            warmup,
            duration,
            clients_per_node: 1,
        };
        let r = match family {
            "QR-DTM" => {
                let cfg = DtmConfig {
                    nodes: n,
                    ..paper_cfg(NestingMode::Flat)
                };
                run_bank(Rc::new(Cluster::new(cfg)), n, &spec)
            }
            "HyFlow" => {
                let cfg = TfaConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                };
                run_bank(Rc::new(TfaCluster::new(cfg)), n, &spec)
            }
            "Decent-STM" => {
                let cfg = DecentConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                };
                run_bank(Rc::new(DecentCluster::new(cfg)), n, &spec)
            }
            _ => {
                let cfg = QStoreConfig {
                    nodes: n,
                    seed: SEED,
                    ..Default::default()
                };
                run_bank(Rc::new(QStoreCluster::new(cfg)), n, &spec)
            }
        };
        r.throughput
    };
    grid.figure(
        "fig9",
        "nodes",
        |mix| format!("Bank {mix}% read"),
        |n| n as f64,
        cell,
    )
}

/// Fig. 10: throughput under increasing node failures (28 nodes, read
/// quorum starts as the root alone and grows by one per failure).
pub fn fig10(quick: bool) -> Figure {
    let failures: Vec<usize> = if quick {
        vec![0, 2, 4, 6, 8]
    } else {
        (0..=8).collect()
    };
    let grid = Sweep {
        groups: &[Benchmark::Hashmap, Benchmark::Bst, Benchmark::Vacation],
        xs: &failures,
        series: &["QR-DTM"],
    };
    let cell = |bench, failures, _| {
        let cfg = DtmConfig {
            nodes: 28,
            read_level: 0, // single-node read quorum initially
            // Server occupancy high enough that the singleton read quorum
            // is a genuine hot spot; spreading it is what produces the
            // initial throughput rise of Fig. 10.
            service_time: SimDuration::from_millis(2),
            ..paper_cfg(NestingMode::Closed)
        };
        let params = WorkloadParams {
            read_pct: 50,
            calls: 2,
            // Plentiful objects: Fig. 10 isolates the quorum bottleneck,
            // not data contention.
            objects: 192,
        };
        let spec = RunSpec {
            clients_per_node: 2,
            failures,
            ..spec(quick, bench, params)
        };
        run(cfg, &spec).throughput
    };
    grid.figure("fig10", "failed nodes", bench_title, |f| f as f64, cell)
}

/// Ablation results (one figure per design knob DESIGN.md calls out),
/// each a single-group, single-series sweep over the knob.
pub fn ablations(quick: bool) -> Vec<Figure> {
    let base = |bench| spec(quick, bench, default_params(bench));

    // (a) Rqv on/off under QR-CN.
    let rqv = Sweep {
        groups: &["Rqv incremental validation"],
        xs: &[true, false],
        series: &["SList closed"],
    }
    .figure(
        "ablation-rqv",
        "rqv",
        str::to_string,
        |on| if on { 1.0 } else { 0.0 },
        |_, rqv, _| {
            let cfg = DtmConfig {
                rqv,
                ..paper_cfg(NestingMode::Closed)
            };
            run(cfg, &base(Benchmark::SList)).throughput
        },
    );

    // (b) Checkpoint threshold granularity under QR-CHK.
    let thresh = Sweep {
        groups: &["Checkpoint granularity"],
        xs: &[1usize, 2, 4, 8],
        series: &["Hashmap chk"],
    }
    .figure(
        "ablation-chk-threshold",
        "objects per checkpoint",
        str::to_string,
        |t| t as f64,
        |_, chk_threshold, _| {
            let cfg = DtmConfig {
                chk_threshold,
                ..paper_cfg(NestingMode::Checkpoint)
            };
            run(cfg, &base(Benchmark::Hashmap)).throughput
        },
    );

    // (c) Read-quorum level policy.
    let level = Sweep {
        groups: &["Read quorum selection"],
        xs: &[0usize, 1, 2],
        series: &["Bank closed"],
    }
    .figure(
        "ablation-read-level",
        "read quorum level",
        str::to_string,
        |l| l as f64,
        |_, read_level, _| {
            let cfg = DtmConfig {
                read_level,
                ..paper_cfg(NestingMode::Closed)
            };
            run(cfg, &base(Benchmark::Bank)).throughput
        },
    );

    // (d) Backoff policy under flat nesting (where retries are hottest).
    let backoff = Sweep {
        groups: &["Abort backoff"],
        xs: &[0u64, 1, 4, 16],
        series: &["SList flat"],
    }
    .figure(
        "ablation-backoff",
        "backoff base (ms)",
        str::to_string,
        |ms| ms as f64,
        |_, ms, _| {
            let cfg = DtmConfig {
                backoff_base: SimDuration::from_millis(ms),
                ..paper_cfg(NestingMode::Flat)
            };
            run(cfg, &base(Benchmark::SList)).throughput
        },
    );

    // (e) Network model: uniform vs jittered vs metric-space (cc-DTM) at
    // the same mean budget.
    let models = [
        LatencySpec::Const(SimDuration::from_millis(15)),
        LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        // Unit-square placement with ~0.52 mean distance: per-unit chosen
        // so the mean one-way latency is ~15 ms.
        LatencySpec::Metric(SimDuration::from_millis(29), SimDuration::from_millis(2)),
    ];
    let netmodel = Sweep {
        groups: &["Latency model"],
        xs: &[0usize, 1, 2],
        series: &["Bank closed"],
    }
    .figure(
        "ablation-network-model",
        "model (0=const 1=jittered 2=metric)",
        str::to_string,
        |i| i as f64,
        |_, i, _| {
            let cfg = DtmConfig {
                latency: models[i].clone(),
                ..paper_cfg(NestingMode::Closed)
            };
            run(cfg, &base(Benchmark::Bank)).throughput
        },
    );

    vec![rqv, thresh, level, backoff, netmodel]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_rows_follow_grid_order() {
        let grid = Sweep {
            groups: &[1, 2],
            xs: &[10, 20],
            series: &[100, 200, 300],
        };
        let rows = grid.rows(|g, x, s| g + x + s);
        assert_eq!(
            rows,
            vec![
                vec![vec![111, 211, 311], vec![121, 221, 321]],
                vec![vec![112, 212, 312], vec![122, 222, 322]],
            ]
        );
    }

    #[test]
    fn paper_cfg_matches_testbed() {
        let cfg = paper_cfg(NestingMode::Closed);
        assert_eq!(cfg.nodes, 40);
        assert_eq!(cfg.read_level, 1);
    }
}
