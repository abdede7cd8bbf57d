//! The four workloads. Each pass builds its cluster from the seed, warms
//! up, measures one fixed virtual window, checks the outcome, and
//! returns every metric it can compute. A pass with tracing on also
//! records per-call spans, host wall time inside calls and allocations.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use qrdtm_core::{
    Cluster, DtmConfig, DtmProtocol, DtmStats, DurabilityConfig, NestingMode, ObjVal, ObjectId,
    OverloadConfig, SimHosted,
};
use qrdtm_par::{run_par_bank, ParBankSpec};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{EngineEventKind, Metrics, NodeId, SimDuration};
use qrdtm_workloads::vacation::{self, VacationLayout};
use qrdtm_workloads::{run_bank, run_open_loop, BankSpec, OpenLoopSpec, RateSchedule};

use crate::family::{Family, Lifetime};
use crate::report::{latency_percentiles, ratio, Report, Set};
use crate::timed::{wall_polls, Recorder, Timed};

/// Replica nodes in every simulated cluster.
const NODES: usize = 10;
/// Starting balance of every bank account.
const BALANCE: i64 = 1_000;
/// Closed-loop warm-up before the window opens.
const WARMUP: SimDuration = SimDuration::from_secs(5);

/// How one pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Record per-call spans, wall time inside calls and allocations.
    pub trace: bool,
    /// Shrink every virtual window tenfold (the benchmark's own test).
    pub quick: bool,
    /// Stop once the window opens and report only the set-up time.
    pub setup_only: bool,
}

impl Params {
    fn window(&self, d: SimDuration) -> SimDuration {
        if self.setup_only {
            SimDuration::from_nanos(0)
        } else if self.quick {
            SimDuration::from_nanos(d.as_nanos() / 10)
        } else {
            d
        }
    }
}

/// The outcome of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Every metric the pass computed.
    pub report: Report,
    /// Wall seconds from the start of the pass to the window opening.
    pub setup_s: f64,
    /// Transactions the window attempted.
    pub attempted: u64,
}

impl Pass {
    fn setup_only(setup_s: f64) -> Pass {
        Pass {
            report: Report::default(),
            setup_s,
            attempted: 0,
        }
    }
}

/// A workload: one pass at the given parameters.
pub type Workload = fn(&Params) -> Result<Pass, String>;

/// The workloads by name.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("bank", bank),
    ("vacation-chk", vacation_chk),
    ("hot-qstore", hot_qstore),
    ("openloop", openloop),
];

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Event core and network, per commit of the window.
fn sim_layers(
    r: &mut Report,
    m: &Metrics,
    base: &Lifetime,
    end: &Lifetime,
    commits: u64,
    wall_ns: u64,
    classes: &[&str],
) {
    let (q0, q1) = (&base.queue, &end.queue);
    r.layer("sim.events_per_commit", ratio(m.events, commits), "count");
    r.layer_wall("sim.wall_ns_per_event", ratio(wall_ns, m.events), "ns");
    for (name, a, b) in [
        ("pushes", q0.pushes, q1.pushes),
        ("overflow_pushes", q0.overflow_pushes, q1.overflow_pushes),
        ("bucket_sorts", q0.bucket_sorts, q1.bucket_sorts),
        ("run_inserts", q0.run_inserts, q1.run_inserts),
    ] {
        r.layer(
            &format!("sim.wheel.{name}_per_commit"),
            ratio(b - a, commits),
            "count",
        );
    }
    r.layer("sim.wheel.max_run", q1.max_run as f64, "count");
    r.layer("sim.arena.high_water", q1.arena.high_water as f64, "count");
    sim_net(r, m, commits, classes);
}

/// Messages per commit, by message class.
fn sim_net(r: &mut Report, m: &Metrics, commits: u64, classes: &[&str]) {
    for (class, name) in classes.iter().enumerate() {
        r.layer(
            &format!("sim.net.{name}_per_commit"),
            ratio(m.sent_by_class[class], commits),
            "count",
        );
    }
}

/// Messages and bytes per commit, and host wall time per commit.
fn cost(r: &mut Report, m: &Metrics, commits: u64, wall_ns: u64) {
    r.e2e("msgs_per_commit", ratio(m.sent_total, commits), "count");
    r.e2e("bytes_per_commit", ratio(m.bytes_total, commits), "B");
    r.e2e_wall("wall_us_per_commit", ratio(wall_ns, commits) / 1e3, "us");
}

/// Allocations and wall-time drift of a traced window. Allocation counts
/// are not exact: `HashMap` tombstones, and with them rehash points,
/// follow the per-process random hash keys.
fn host_layers(r: &mut Report, rec: &Recorder) {
    if rec.trace {
        r.layer_wall(
            "host.allocs_per_commit",
            ratio(rec.allocs.0, rec.commits),
            "count",
        );
        r.layer_wall(
            "host.alloc_bytes_per_commit",
            ratio(rec.allocs.1, rec.commits),
            "B",
        );
        r.layer_wall("host.wall_drift", rec.wall_drift(), "ratio");
    }
}

/// Spans of the wrapped calls and the host time inside them.
fn call_layers(r: &mut Report, rec: &mut Recorder, call_wall_ns: u64, wall: u64) {
    if !rec.trace {
        return;
    }
    let c = rec.commits;
    r.layer(
        "span.read.ms_per_commit",
        ratio(rec.span_ns[0], c) / 1e6,
        "ms",
    );
    latency_percentiles(r, "span.read.", &mut rec.read_ns, Set::Layer);
    r.layer(
        "span.write.ms_per_commit",
        ratio(rec.span_ns[1], c) / 1e6,
        "ms",
    );
    r.layer(
        "span.commit.ms_per_commit",
        ratio(rec.span_ns[2], c) / 1e6,
        "ms",
    );
    rec.commit_ns.sort_unstable();
    if !rec.commit_ns.is_empty() {
        let p50 = crate::report::percentile(&rec.commit_ns, 50.0);
        r.layer("span.commit.p50_ms", p50 as f64 / 1e6, "ms");
    }
    r.layer(
        "span.restart.ms_per_commit",
        ratio(rec.span_ns[3], c) / 1e6,
        "ms",
    );
    r.layer("commit.useful_ratio", ratio(c, c + rec.restarts), "ratio");
    r.layer_wall(
        "engine.client_wall_ns_per_commit",
        ratio(call_wall_ns, c),
        "ns",
    );
    r.layer_wall(
        "sim.rest_wall_ns_per_commit",
        ratio(wall.saturating_sub(call_wall_ns), c),
        "ns",
    );
}

/// Transport, validation and commit counters of the QR engine.
fn engine_layers(r: &mut Report, s: &DtmStats, m: &Metrics, commits: u64) {
    r.layer(
        "engine.read_rounds_per_commit",
        ratio(s.read_rounds, commits),
        "count",
    );
    r.layer(
        "engine.local_hits_per_commit",
        ratio(s.local_hits, commits),
        "count",
    );
    r.layer(
        "engine.lock_waits_per_commit",
        ratio(s.lock_waits, commits),
        "count",
    );
    r.layer(
        "engine.rpc_retries_per_commit",
        ratio(m.rpc_retries, commits),
        "count",
    );
    r.layer(
        "rqv.local_commit_share",
        ratio(s.local_commits, commits),
        "ratio",
    );
    r.layer(
        "rqv.validated_reads_per_commit",
        ratio(m.engine_events(EngineEventKind::ReadValidated), commits),
        "count",
    );
    r.layer(
        "commit.rounds_per_commit",
        ratio(s.commit_rounds, commits),
        "count",
    );
    r.layer(
        "commit.root_aborts_per_commit",
        ratio(s.root_aborts, commits),
        "count",
    );
}

/// Stop new transactions, let the begun ones finish, then require the
/// bank's balance total to be conserved.
fn audit_bank<P: Family>(proto: &Timed<P>, accounts: u64) -> Result<(), String> {
    proto.park();
    let sim = proto.sim();
    for _ in 0..600 {
        if proto.live() == 0 {
            break;
        }
        sim.run_for(SimDuration::from_millis(100));
    }
    if proto.live() != 0 {
        return Err(format!("{} transactions never finished", proto.live()));
    }
    // Let the last commits' apply messages land on every replica.
    sim.run_for(SimDuration::from_secs(1));
    let mut total = 0;
    for i in 0..accounts {
        total += proto
            .inner()
            .balance(ObjectId(i))
            .ok_or_else(|| format!("account {i} is missing or not an integer"))?;
    }
    let want = accounts as i64 * BALANCE;
    if total != want {
        return Err(format!("balance total {total}, want {want}"));
    }
    Ok(())
}

/// Checks every wrapped window must pass. The protocol's own commit
/// count may differ from the clients' by up to `slack` transactions in
/// flight at the window's edges.
fn check_window(rec: &Recorder, protocol_commits: u64, slack: u64) -> Result<(), String> {
    if rec.commits == 0 {
        return Err("no transaction committed in the window".into());
    }
    if rec.double_commits != 0 {
        return Err(format!("{} handles committed twice", rec.double_commits));
    }
    if rec.span_mismatches != 0 {
        return Err(format!(
            "{} commits whose read/write/commit/restart spans do not sum to their latency",
            rec.span_mismatches
        ));
    }
    if rec.arrival_violations != 0 {
        return Err(format!(
            "{} arrivals not recoverable from their deadline",
            rec.arrival_violations
        ));
    }
    if rec.commits.abs_diff(protocol_commits) > slack {
        return Err(format!(
            "wrapper saw {} commits, protocol counted {protocol_commits}",
            rec.commits
        ));
    }
    Ok(())
}

/// `bank`: QR-CN closed loop; traced passes also run the same mix on the
/// threaded TL2 host.
fn bank(p: &Params) -> Result<Pass, String> {
    let t0 = Instant::now();
    let window = p.window(SimDuration::from_secs(240));
    let cluster = Cluster::new(DtmConfig {
        nodes: NODES,
        mode: NestingMode::Closed,
        seed: p.seed,
        ..Default::default()
    });
    let proto = Rc::new(Timed::new(cluster, p.trace, window));
    let spec = BankSpec {
        accounts: 1024,
        read_pct: 50,
        warmup: WARMUP,
        duration: window,
        clients_per_node: 8,
    };
    let res = run_bank(Rc::clone(&proto), NODES, &spec);
    let mut rec = proto.close();
    if p.setup_only {
        return Ok(Pass::setup_only(setup_secs(&rec, t0)));
    }
    let m = proto.sim().metrics();
    let end = proto.inner().lifetime();
    let stats = proto.inner().stats();
    check_window(&rec, res.commits, 0)?;
    audit_bank(&proto, spec.accounts)?;

    let mut r = Report::default();
    let c = rec.commits;
    let wall = rec.wall_ns();
    r.e2e("virtual_tps", c as f64 / window.as_secs_f64(), "1/s");
    latency_percentiles(&mut r, "latency_", &mut rec.latency_ns, Set::EndToEnd);
    cost(&mut r, &m, c, wall);
    sim_layers(&mut r, &m, &rec.base, &end, c, wall, Cluster::CLASSES);
    engine_layers(&mut r, &stats, &m, c);
    call_layers(&mut r, &mut rec, proto.call_wall_ns(), wall);
    host_layers(&mut r, &rec);
    r.e2e_wall("peak_rss_mb", peak_rss_mb()?, "MiB");
    if p.trace {
        par_bank(&mut r, p)?;
    }
    Ok(Pass {
        setup_s: setup_secs(&rec, t0),
        attempted: rec.begins,
        report: r,
    })
}

fn setup_secs(rec: &Recorder, t0: Instant) -> f64 {
    rec.opened
        .1
        .expect("window opened")
        .duration_since(t0)
        .as_secs_f64()
}

/// The bank mix on the threaded TL2 backend, at one thread and at the
/// host's core count.
fn par_bank(r: &mut Report, p: &Params) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = ParBankSpec {
        accounts: 1024,
        read_pct: 50,
        ops_per_thread: if p.quick { 20_000 } else { 200_000 },
    };
    let one = run_par_bank(p.seed, 1, &spec);
    let many = run_par_bank(p.seed, threads, &spec);
    for run in [&one, &many] {
        if run.violations != 0 {
            return Err(format!(
                "par history audit: {} violations at {} threads",
                run.violations, run.threads
            ));
        }
        if run.total_balance != spec.accounts as i64 * BALANCE || run.commits != run.ops {
            return Err(format!(
                "par at {} threads: balance {} over {} commits of {} ops",
                run.threads, run.total_balance, run.commits, run.ops
            ));
        }
    }
    let us = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e3);
    r.layer_wall("par.wall_tps", many.throughput, "1/s");
    r.layer_wall("par.tps_1thread", one.throughput, "1/s");
    r.layer_wall("par.scaling", many.throughput / one.throughput, "ratio");
    r.layer("par.threads", threads as f64, "count");
    r.layer_wall(
        "par.aborts_per_commit",
        ratio(many.aborts, many.commits),
        "ratio",
    );
    r.layer_wall("par.latency_p50_us", us(many.p50_ns), "us");
    r.layer_wall("par.latency_p99_us", us(many.p99_ns), "us");
    Ok(())
}

/// `hot-qstore`: Q-Store with a durable batch WAL on eight hot accounts.
fn hot_qstore(p: &Params) -> Result<Pass, String> {
    let t0 = Instant::now();
    let window = p.window(SimDuration::from_secs(360));
    let cluster = QStoreCluster::new(QStoreConfig {
        nodes: NODES,
        seed: p.seed,
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    });
    let proto = Rc::new(Timed::new(cluster, p.trace, window));
    let spec = BankSpec {
        accounts: 8,
        read_pct: 10,
        warmup: WARMUP,
        duration: window,
        clients_per_node: 2,
    };
    let res = run_bank(Rc::clone(&proto), NODES, &spec);
    let mut rec = proto.close();
    if p.setup_only {
        return Ok(Pass::setup_only(setup_secs(&rec, t0)));
    }
    let m = proto.sim().metrics();
    let end = proto.inner().lifetime();
    let stats = proto.inner().stats();
    let mut epochs = proto.inner().epoch_latencies();
    // Q-Store counts a commit when its batch is acknowledged; the client
    // learns of it at its next poll.
    let clients = (NODES * spec.clients_per_node) as u64;
    check_window(&rec, res.commits, clients)?;
    audit_bank(&proto, spec.accounts)?;

    let mut r = Report::default();
    let c = rec.commits;
    let wall = rec.wall_ns();
    r.e2e("virtual_tps", c as f64 / window.as_secs_f64(), "1/s");
    latency_percentiles(&mut r, "latency_", &mut rec.latency_ns, Set::EndToEnd);
    cost(&mut r, &m, c, wall);
    sim_layers(&mut r, &m, &rec.base, &end, c, wall, QStoreCluster::CLASSES);
    let (records, fsyncs) = (end.wal.0 - rec.base.wal.0, end.wal.1 - rec.base.wal.1);
    r.layer("sim.disk.fsyncs_per_commit", ratio(fsyncs, c), "count");
    r.layer(
        "qstore.batches_per_commit",
        ratio(stats.batches, c),
        "count",
    );
    r.layer(
        "qstore.batch_fill",
        ratio(stats.batch_txns, stats.batches),
        "count",
    );
    r.layer(
        "qstore.requeues_per_commit",
        ratio(stats.aborts, c),
        "count",
    );
    r.layer("qstore.wal_records_per_commit", ratio(records, c), "count");
    latency_percentiles(&mut r, "qstore.epoch_", &mut epochs, Set::Layer);
    call_layers(&mut r, &mut rec, proto.call_wall_ns(), wall);
    host_layers(&mut r, &rec);
    r.e2e_wall("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(Pass {
        setup_s: setup_secs(&rec, t0),
        attempted: rec.begins,
        report: r,
    })
}

/// Shared state of the vacation clients.
#[derive(Default)]
struct VacState {
    rec: RefCell<Option<Recorder>>,
    /// Body attempts and their virtual ns inside the window.
    attempts: Cell<u64>,
    body_ns: Cell<u64>,
    /// Host wall ns inside polls of attempt bodies (traced).
    body_wall_ns: Cell<u64>,
    stop: Cell<bool>,
    running: Cell<u64>,
}

const VAC_ROWS: u64 = 64;
const VAC_CALLS: usize = 3;
const VAC_READ_PCT: u64 = 50;

/// One closed-loop vacation client: the mix of `qrdtm_workloads::run`,
/// driven through `Client::run`, timing each root transaction and each
/// attempt's body.
async fn vacation_client(
    c: Rc<Cluster>,
    node: NodeId,
    v: VacationLayout,
    st: Rc<VacState>,
    trace: bool,
) {
    let sim = c.sim().clone();
    let client = c.client(node);
    while !st.stop.get() {
        let is_read = sim.rand_below(100) < VAC_READ_PCT;
        let customer = sim.rand_below(v.customers);
        let rounds: Vec<[u64; 3]> = (0..VAC_CALLS)
            .map(|_| {
                [
                    sim.rand_below(v.rows),
                    sim.rand_below(v.rows),
                    sim.rand_below(v.rows),
                ]
            })
            .collect();
        let begun = sim.now();
        client
            .run(|tx| {
                let (rounds, st, sim) = (&rounds, &st, &sim);
                async move {
                    let b0 = sim.now();
                    let body = async {
                        for &picks in rounds {
                            if is_read {
                                vacation::query(&tx, &v, picks).await?;
                            } else {
                                vacation::make_reservation(&tx, &v, customer, picks).await?;
                            }
                        }
                        Ok(())
                    };
                    let r = if trace {
                        wall_polls(body, &st.body_wall_ns).await
                    } else {
                        body.await
                    };
                    if st.rec.borrow().is_some() {
                        st.attempts.set(st.attempts.get() + 1);
                        let d = sim.now().saturating_since(b0).as_nanos();
                        st.body_ns.set(st.body_ns.get() + d);
                    }
                    r
                }
            })
            .await;
        if let Some(rec) = st.rec.borrow_mut().as_mut() {
            rec.commit(sim.now(), begun);
        }
    }
    st.running.set(st.running.get() - 1);
}

/// Sum of `used` over every row, and of reservations over every
/// customer, as committed.
fn vacation_totals(c: &Cluster, v: &VacationLayout) -> Result<(i64, i64), String> {
    let get = |oid: ObjectId| {
        c.latest(oid)
            .map(|(_, val)| val)
            .ok_or(format!("{oid:?} missing"))
    };
    let mut used = 0;
    for table in 0..3 {
        for i in 0..v.rows {
            match get(v.row(table, i))? {
                ObjVal::Table(rows) => used += rows.iter().map(|r| r.used).sum::<i64>(),
                other => return Err(format!("row {table}/{i} holds {other:?}")),
            }
        }
    }
    let mut reserved = 0;
    for cust in 0..v.customers {
        match get(v.customer(cust))? {
            ObjVal::IntList(list) => reserved += list.len() as i64,
            other => return Err(format!("customer {cust} holds {other:?}")),
        }
    }
    Ok((used, reserved))
}

/// `vacation-chk`: STAMP Vacation under QR-CHK.
fn vacation_chk(p: &Params) -> Result<Pass, String> {
    let t0 = Instant::now();
    let window = p.window(SimDuration::from_secs(600));
    let c = Rc::new(Cluster::new(DtmConfig {
        nodes: NODES,
        mode: NestingMode::Checkpoint,
        seed: p.seed,
        ..Default::default()
    }));
    let v = VacationLayout {
        base: 0,
        rows: VAC_ROWS,
        customers: VAC_ROWS,
        // Contention comes from row conflicts, not from exhaustion.
        capacity: 1 << 40,
    };
    c.preload_all(v.setup());
    let st = Rc::new(VacState::default());
    let sim = c.sim().clone();
    for node in 0..NODES as u32 {
        for _ in 0..2 {
            st.running.set(st.running.get() + 1);
            sim.spawn(vacation_client(
                Rc::clone(&c),
                NodeId(node),
                v,
                Rc::clone(&st),
                p.trace,
            ));
        }
    }
    sim.run_for(WARMUP);
    c.reset_stats();
    sim.reset_metrics();
    st.body_wall_ns.set(0);
    *st.rec.borrow_mut() = Some(Recorder::open(sim.now(), c.lifetime(), window, p.trace));
    sim.run_for(window);
    let mut rec = st.rec.take().expect("window open");
    rec.close();
    if p.setup_only {
        return Ok(Pass::setup_only(setup_secs(&rec, t0)));
    }
    let m = sim.metrics();
    let end = c.lifetime();
    let stats = c.stats();
    st.stop.set(true);
    for _ in 0..600 {
        if st.running.get() == 0 {
            break;
        }
        sim.run_for(SimDuration::from_millis(100));
    }
    if st.running.get() != 0 {
        return Err(format!(
            "{} vacation clients never finished",
            st.running.get()
        ));
    }
    sim.run_for(SimDuration::from_secs(1));
    let (used, reserved) = vacation_totals(&c, &v)?;
    if used != reserved {
        return Err(format!("total_used {used} != total_reserved {reserved}"));
    }
    if rec.commits == 0 || rec.commits != stats.commits {
        return Err(format!(
            "clients saw {} commits, protocol counted {}",
            rec.commits, stats.commits
        ));
    }

    let mut r = Report::default();
    let cm = rec.commits;
    let wall = rec.wall_ns();
    r.e2e("virtual_tps", cm as f64 / window.as_secs_f64(), "1/s");
    latency_percentiles(&mut r, "latency_", &mut rec.latency_ns, Set::EndToEnd);
    cost(&mut r, &m, cm, wall);
    sim_layers(&mut r, &m, &rec.base, &end, cm, wall, Cluster::CLASSES);
    engine_layers(&mut r, &stats, &m, cm);
    r.layer(
        "nesting.ct_commits_per_commit",
        ratio(stats.ct_commits, cm),
        "count",
    );
    r.layer(
        "nesting.ct_aborts_per_commit",
        ratio(stats.ct_aborts, cm),
        "count",
    );
    r.layer(
        "nesting.checkpoints_per_commit",
        ratio(stats.checkpoints, cm),
        "count",
    );
    r.layer(
        "nesting.chk_rollbacks_per_commit",
        ratio(stats.chk_rollbacks, cm),
        "count",
    );
    r.layer(
        "nesting.replayed_ops_per_commit",
        ratio(stats.replayed_ops, cm),
        "count",
    );
    let attempts = st.attempts.get();
    r.layer(
        "span.body.ms_per_attempt",
        ratio(st.body_ns.get(), attempts) / 1e6,
        "ms",
    );
    r.layer("commit.useful_ratio", ratio(cm, attempts), "ratio");
    if p.trace {
        r.layer_wall(
            "span.body.wall_ns_per_commit",
            ratio(st.body_wall_ns.get(), cm),
            "ns",
        );
    }
    host_layers(&mut r, &rec);
    r.e2e_wall("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(Pass {
        setup_s: setup_secs(&rec, t0),
        attempted: cm,
        report: r,
    })
}

/// Offered rates of the open-loop ladder, txn per virtual second.
const LADDER: [u64; 9] = [10, 20, 30, 40, 60, 80, 120, 160, 240];
/// Rung whose latency and failure share are reported.
const SLO_RUNG: u64 = 40;
/// Rung whose throughput and goodput are reported.
const TOP_RUNG: u64 = 240;
const DEADLINE: SimDuration = SimDuration::from_millis(500);
/// Service-level objective: p99 from arrival, and the failed share.
const SLO_P99_NS: u64 = 500_000_000;
const SLO_FAILED_PCT: f64 = 1.0;

/// Virtual window of a rung. The failed share near the SLO knee
/// (20–40 tps) sits close to 1%, so those rungs run long enough for
/// their share, and the knee, to be steady across seeds.
fn rung_window(rate: u64) -> SimDuration {
    SimDuration::from_secs(match rate {
        30 | SLO_RUNG => 1800,
        20 => 400,
        TOP_RUNG => 60,
        _ => 40,
    })
}

/// One rung's outcome against the SLO.
struct Rung {
    rate: f64,
    failed_pct: f64,
    meets_slo: bool,
}

/// The offered rate at which the SLO stops holding: the highest rung that
/// meets it, interpolated linearly on the failed share towards the rung
/// above it, where that rung misses.
fn slo_knee(rungs: &[Rung]) -> f64 {
    let Some(h) = rungs.iter().rposition(|r| r.meets_slo) else {
        let first = &rungs[0];
        return first.rate * (SLO_FAILED_PCT / first.failed_pct).min(1.0);
    };
    let (lo, Some(hi)) = (&rungs[h], rungs.get(h + 1)) else {
        return rungs[h].rate;
    };
    let rise = hi.failed_pct - lo.failed_pct;
    let t = if rise > 0.0 {
        ((SLO_FAILED_PCT - lo.failed_pct) / rise).clamp(0.0, 1.0)
    } else {
        0.0
    };
    lo.rate + (hi.rate - lo.rate) * t
}

/// Add the counters of one rung's window to the ladder's.
fn add_metrics(sum: &mut Metrics, m: &Metrics) {
    sum.sent_total += m.sent_total;
    sum.bytes_total += m.bytes_total;
    sum.events += m.events;
    sum.rpc_retries += m.rpc_retries;
    sum.deadline_aborts += m.deadline_aborts;
    sum.retry_budget_exhausted += m.retry_budget_exhausted;
    sum.hedges_suppressed += m.hedges_suppressed;
    for (a, b) in sum.sent_by_class.iter_mut().zip(m.sent_by_class) {
        *a += b;
    }
    for (a, b) in sum
        .engine_events_by_kind
        .iter_mut()
        .zip(m.engine_events_by_kind)
    {
        *a += b;
    }
}

fn add_stats(sum: &mut DtmStats, s: &DtmStats) {
    sum.read_rounds += s.read_rounds;
    sum.local_hits += s.local_hits;
    sum.lock_waits += s.lock_waits;
    sum.local_commits += s.local_commits;
    sum.commit_rounds += s.commit_rounds;
    sum.root_aborts += s.root_aborts;
}

/// `openloop`: Poisson arrivals on QR-CN with overload protection armed,
/// over a ladder of offered rates, one fresh cluster per rung.
fn openloop(p: &Params) -> Result<Pass, String> {
    let mut r = Report::default();
    let mut setup_s = 0.0;
    let (mut offered, mut good, mut wall_ns, mut call_wall) = (0, 0, 0, 0);
    let (mut shed, mut abandoned, mut late, mut max_depth) = (0, 0, 0, 0);
    let mut metrics = Metrics::default();
    let mut stats = DtmStats::default();
    let mut all = Recorder {
        trace: p.trace,
        ..Recorder::default()
    };
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER.iter().enumerate() {
        let t0 = Instant::now();
        let window = p.window(rung_window(rate));
        let cluster = Cluster::new(DtmConfig {
            nodes: NODES,
            mode: NestingMode::Closed,
            seed: p
                .seed
                .wrapping_mul(LADDER.len() as u64)
                .wrapping_add(i as u64),
            overload: Some(OverloadConfig {
                queue_bound: 4,
                ..Default::default()
            }),
            ..Default::default()
        });
        let proto = Rc::new(Timed::open_loop(cluster, p.trace, window, DEADLINE));
        let spec = OpenLoopSpec {
            accounts: 64,
            read_pct: 40,
            rate_tps: rate,
            zipf_milli: 0,
            deadline: DEADLINE,
            queue_bound: 4,
            workers_per_node: 2,
            schedule: RateSchedule::Steady,
            protect: true,
        };
        let warmup = SimDuration::from_secs(2);
        let res = run_open_loop(Rc::clone(&proto), NODES, &spec, warmup, window);
        let mut rec = proto.close();
        setup_s += setup_secs(&rec, t0);
        if p.setup_only {
            continue;
        }
        check_window(&rec, proto.protocol_stats().commits, 0)?;
        if res.offered != res.admitted + res.shed {
            return Err(format!(
                "{rate} tps: offered {} != admitted {} + shed {}",
                res.offered, res.admitted, res.shed
            ));
        }
        if rec.commits != res.goodput + res.late {
            return Err(format!(
                "{rate} tps: {} commits counted as goodput {} + late {}",
                rec.commits, res.goodput, res.late
            ));
        }
        let failed_pct = 100.0 * ratio(res.shed + res.abandoned + res.late, res.offered);
        // A shed or abandoned request misses any latency limit.
        rec.latency_ns.sort_unstable();
        let population = rec.latency_ns.len() as u64 + res.shed + res.abandoned;
        let rank = (0.99 * population as f64).ceil() as usize;
        let p99_ok = rank >= 1
            && rec
                .latency_ns
                .get(rank - 1)
                .is_some_and(|&l| l <= SLO_P99_NS);
        eprintln!(
            "  {rate:>3} tps: offered {} good {} late {} shed {} abandoned {} failed {failed_pct:.3}%",
            res.offered, res.goodput, res.late, res.shed, res.abandoned
        );
        rungs.push(Rung {
            rate: rate as f64,
            failed_pct,
            meets_slo: p99_ok && failed_pct <= SLO_FAILED_PCT,
        });
        if rate == SLO_RUNG {
            latency_percentiles(&mut r, "latency_", &mut rec.latency_ns, Set::EndToEnd);
            r.layer("overload.failed_pct", failed_pct, "%");
        }
        if rate == TOP_RUNG {
            let secs = window.as_secs_f64();
            r.e2e("virtual_tps", rec.commits as f64 / secs, "1/s");
            r.layer("overload.goodput_tps", res.goodput_tps, "1/s");
        }
        offered += res.offered;
        good += res.goodput;
        shed += res.shed;
        abandoned += res.abandoned;
        late += res.late;
        max_depth = max_depth.max(res.max_queue_depth);
        wall_ns += rec.wall_ns();
        call_wall += proto.call_wall_ns();
        add_metrics(&mut metrics, &proto.sim().metrics());
        add_stats(&mut stats, &proto.inner().stats());
        all.absorb(rec);
    }
    if p.setup_only {
        return Ok(Pass::setup_only(setup_s));
    }
    let c = all.commits;
    r.layer("overload.max_tps_under_slo", slo_knee(&rungs), "1/s");
    r.e2e("msgs_per_commit", ratio(metrics.sent_total, c), "count");
    r.e2e("bytes_per_commit", ratio(metrics.bytes_total, c), "B");
    r.e2e_wall("wall_us_per_commit", ratio(wall_ns, good) / 1e3, "us");
    r.layer("sim.events_per_commit", ratio(metrics.events, c), "count");
    r.layer_wall(
        "sim.wall_ns_per_event",
        ratio(wall_ns, metrics.events),
        "ns",
    );
    sim_net(&mut r, &metrics, c, Cluster::CLASSES);
    engine_layers(&mut r, &stats, &metrics, c);
    r.layer("overload.shed_pct", 100.0 * ratio(shed, offered), "%");
    r.layer(
        "overload.abandoned_pct",
        100.0 * ratio(abandoned, offered),
        "%",
    );
    r.layer("overload.late_pct", 100.0 * ratio(late, offered), "%");
    r.layer(
        "overload.deadline_aborts_per_commit",
        ratio(metrics.deadline_aborts, c),
        "count",
    );
    r.layer(
        "overload.retry_budget_exhausted",
        metrics.retry_budget_exhausted as f64,
        "count",
    );
    r.layer(
        "overload.hedges_suppressed",
        metrics.hedges_suppressed as f64,
        "count",
    );
    r.layer("overload.max_queue_depth", max_depth as f64, "count");
    if p.trace {
        latency_percentiles(
            &mut r,
            "overload.queue_wait_",
            &mut all.queue_wait_ns,
            Set::Layer,
        );
    }
    call_layers(&mut r, &mut all, call_wall, wall_ns);
    if p.trace {
        r.layer_wall("host.allocs_per_commit", ratio(all.allocs.0, c), "count");
        r.layer_wall("host.alloc_bytes_per_commit", ratio(all.allocs.1, c), "B");
    }
    r.e2e_wall("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(Pass {
        setup_s,
        attempted: offered,
        report: r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, failed_pct: f64) -> Rung {
        Rung {
            rate,
            failed_pct,
            meets_slo: failed_pct <= SLO_FAILED_PCT,
        }
    }

    #[test]
    fn knee_interpolates_towards_the_first_missing_rung() {
        let rungs = [rung(10.0, 0.2), rung(20.0, 0.6), rung(30.0, 1.4)];
        assert!((slo_knee(&rungs) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn knee_is_the_top_rung_when_every_rung_meets_the_slo() {
        assert_eq!(slo_knee(&[rung(10.0, 0.2), rung(20.0, 0.5)]), 20.0);
    }

    #[test]
    fn knee_below_the_ladder_interpolates_from_zero() {
        assert!((slo_knee(&[rung(10.0, 2.0), rung(20.0, 3.0)]) - 5.0).abs() < 1e-9);
    }
}
