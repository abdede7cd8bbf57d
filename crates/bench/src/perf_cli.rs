//! `repro perf` — the wall-clock performance baseline.
//!
//! Every other `repro` subcommand reports *virtual*-time results from the
//! deterministic simulator; this one also runs the real multi-threaded
//! TL2 backend (`qrdtm-par`) and measures wall-clock throughput, sampled
//! latency percentiles and peak RSS, then writes the whole baseline as a
//! `BENCH_*.json` artifact:
//!
//! ```text
//! repro perf [--quick] [--out FILE]     (default FILE: BENCH_baseline.json)
//! ```
//!
//! Five legs:
//!
//! * **sim** — the QR-CN cluster on the simulator: virtual txn/s (the
//!   paper's metric), plus how fast the simulator itself executes (wall
//!   events/s) and the virtual commit-latency percentiles from the
//!   sampled reservoir.
//! * **write-heavy grid** — QR vs Q-Store head to head on a write-heavy,
//!   high-contention bank (few hot accounts, 10% reads): the workload
//!   speculative batching is built for. The Q-Store leg runs durable
//!   (batch WAL on the simulated disk); it reports per-protocol virtual
//!   txn/s plus Q-Store's batch size, realized batch occupancy, group
//!   commit fsync totals, epoch (seal→quorum-ack) latency percentiles
//!   and the real per-fsync virtual latencies paid to the disk model.
//! * **par ×1 / par ×N** — the TL2 backend at 1 thread and at N =
//!   min(`PAR_MAX_THREADS`, host cores) threads: wall txn/s, abort rate, wall latency
//!   percentiles, and a full serializability audit of the recorded
//!   history (the run fails if any violation is found).
//! * **overload grid** — the open-loop traffic generator sweeps offered
//!   load from well under to well past the saturation knee on a QR-CN
//!   cluster with the overload protections armed, plus one flash-crowd
//!   surge point. Each point reports offered load vs goodput
//!   (within-deadline commits), shed arrivals, deadline aborts,
//!   retry-budget exhaustion and commit-latency percentiles; the run
//!   fails if goodput at twice the knee has collapsed below 1/1.5 of the
//!   peak — the graceful-degradation gate.
//! * **hot-loop grid** — the event-core microbench: 1e5 → 1e6 perpetual
//!   open-loop ping chains on both event-queue implementations (binary
//!   heap vs timing wheel), reporting wall events/sec per point and the
//!   wheel-vs-heap ratio. The run fails if the ratio at the largest
//!   client count drops under the gate (2x in full mode), so the
//!   tentpole speedup is CI-enforced, machine-independently.
//!
//! The report is built as one typed [`Json`] tree and printed by
//! [`json::write`], so it is well formed by construction. The CLI exits 1
//! when a gate above fails or a file cannot be written. Next to `--out`
//! it also writes `BENCH_wheel_vs_heap.json`, which holds the hot-loop
//! grid alone as `{"hot_loop_grid": ...}`. `--out` creates missing parent
//! directories instead of failing.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use qrdtm_core::{
    Cluster, DtmConfig, DurabilityConfig, LatencySpec, NestingMode, OverloadConfig, SimHosted,
};
use qrdtm_par::{run_par_bank, ParBankResult, ParBankSpec};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{
    EventQueueKind, JitteredLatency, NodeId, Sim, SimConfig, SimDuration, SimMessage, SimTime,
};
use qrdtm_workloads::{run_bank, run_open_loop, BankSpec, OpenLoopSpec, RateSchedule};

use crate::json::{self, obj, Json};

/// Most threads the scaled par leg runs; it never runs more than the
/// host has cores.
const PAR_MAX_THREADS: usize = 8;

/// File name of the standalone wheel-vs-heap comparison, written in the
/// directory of `--out`.
const WHEEL_VS_HEAP_FILE: &str = "BENCH_wheel_vs_heap.json";

fn usage() -> i32 {
    eprintln!("usage: repro perf [--quick] [--out FILE]");
    2
}

/// Entry point for `repro perf`. Returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_baseline.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(f) => out = PathBuf::from(f),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let report = Report {
        quick,
        cores,
        sim: sim_leg(quick),
        grid: write_heavy_grid(quick),
        par: [
            par_leg(quick, 1),
            par_leg(quick, cores.clamp(1, PAR_MAX_THREADS)),
        ],
        overload: overload_grid(quick),
        hot: hot_loop_grid(quick),
        peak_rss_kb: peak_rss_kb(),
    };
    if let Err(msg) = report.gate() {
        eprintln!("FAIL: {msg}");
        return 1;
    }
    let cmp = out.with_file_name(WHEEL_VS_HEAP_FILE);
    for (path, doc) in [(&out, report.json()), (&cmp, report.wheel_vs_heap_json())] {
        if let Err(e) = write_doc(path, &doc) {
            eprintln!("FAIL: {e}");
            return 1;
        }
    }
    print_summary(&report, &[&out, &cmp]);
    0
}

/// Print `doc` to `path`, creating missing parent directories.
fn write_doc(path: &Path, doc: &Json) -> Result<(), String> {
    let text =
        json::write(doc).map_err(|e| format!("{}: malformed report: {e}", path.display()))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Every leg of one `repro perf` run.
struct Report {
    quick: bool,
    /// Host cores as measured (0 when unknown).
    cores: usize,
    sim: SimLeg,
    grid: WriteHeavyGrid,
    /// The par leg at 1 thread and at the host's cores (at most
    /// `PAR_MAX_THREADS`).
    par: [ParBankResult; 2],
    overload: OverloadGrid,
    hot: HotLoopGrid,
    /// Peak RSS of the whole run, read after every leg.
    peak_rss_kb: u64,
}

impl Report {
    /// par throughput at the scaled thread count over par at 1 thread.
    fn par_speedup(&self) -> f64 {
        self.par[1].throughput / self.par[0].throughput.max(1e-9)
    }

    /// The run's pass/fail gates: a clean par serializability audit, the
    /// overload grid's graceful degradation, and the hot loop's
    /// wheel-vs-heap ratio.
    fn gate(&self) -> Result<(), String> {
        let [one, scaled] = &self.par;
        if one.violations + scaled.violations > 0 {
            return Err(format!(
                "serializability violations in par history (x1: {}, x{}: {})",
                one.violations, scaled.threads, scaled.violations
            ));
        }
        self.overload.degradation_check()?;
        self.hot.regression_check()
    }

    fn json(&self) -> Json {
        obj! {
            "benchmark" => "bank",
            "generated_by" => "repro perf",
            "quick" => self.quick,
            "host" => obj! {"cores" => self.cores, "peak_rss_kb" => self.peak_rss_kb},
            "sim" => self.sim.json(),
            "write_heavy_grid" => self.grid.json(),
            "overload_grid" => self.overload.json(),
            "hot_loop_grid" => self.hot.json(),
            "par" => Json::Arr(self.par.iter().map(par_json).collect()),
            "par_speedup" => Json::Fixed(self.par_speedup(), 2),
        }
    }

    /// The standalone wheel-vs-heap comparison document.
    fn wheel_vs_heap_json(&self) -> Json {
        obj! {"hot_loop_grid" => self.hot.json()}
    }
}

/// Measured outcome of the simulator leg.
#[derive(Default)]
struct SimLeg {
    protocol: &'static str,
    virtual_tps: f64,
    commits: u64,
    aborts: u64,
    wall_secs: f64,
    events_per_sec: f64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    p999_ns: Option<u64>,
}

fn sim_leg(quick: bool) -> SimLeg {
    let cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Closed,
        seed: 42,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    };
    let spec = BankSpec {
        accounts: 32,
        read_pct: 50,
        warmup: SimDuration::from_millis(500),
        duration: if quick {
            SimDuration::from_secs(2)
        } else {
            SimDuration::from_secs(20)
        },
        clients_per_node: 1,
    };
    let nodes = cfg.nodes;
    let proto = Rc::new(Cluster::new(cfg));
    let t0 = std::time::Instant::now();
    let r = run_bank(Rc::clone(&proto), nodes, &spec);
    let wall = t0.elapsed().as_secs_f64();
    let m = proto.sim().metrics();
    SimLeg {
        protocol: "QR-CN",
        virtual_tps: r.throughput,
        commits: r.commits,
        aborts: r.aborts,
        wall_secs: wall,
        events_per_sec: m.events as f64 / wall.max(1e-9),
        p50_ns: m.latency.percentile(50.0),
        p99_ns: m.latency.percentile(99.0),
        p999_ns: m.latency.percentile(99.9),
    }
}

/// Workload shape of the write-heavy high-contention grid.
const GRID_ACCOUNTS: u64 = 8;
const GRID_READ_PCT: u32 = 10;
const GRID_CLIENTS_PER_NODE: usize = 2;

/// One protocol's measurement on the write-heavy grid.
#[derive(Default)]
struct GridLeg {
    protocol: &'static str,
    virtual_tps: f64,
    commits: u64,
    aborts: u64,
    wall_secs: f64,
}

/// Q-Store's batching telemetry from the grid run.
#[derive(Default)]
struct BatchTelemetry {
    batch_size: usize,
    batches: u64,
    batch_txns: u64,
    wal_fsyncs: u64,
    epoch_p50_ns: Option<u64>,
    epoch_p99_ns: Option<u64>,
    /// Per-fsync virtual latency percentiles from the simulated disks —
    /// the group-commit cost actually paid, not the modelled constant.
    fsync_p50_ns: Option<u64>,
    fsync_p99_ns: Option<u64>,
}

/// Both write-heavy grid legs: QR (flat) and Q-Store on the same bank
/// shape, network, and seed.
#[derive(Default)]
struct WriteHeavyGrid {
    qr: GridLeg,
    qstore: GridLeg,
    batching: BatchTelemetry,
}

fn grid_spec(quick: bool) -> BankSpec {
    BankSpec {
        accounts: GRID_ACCOUNTS,
        read_pct: GRID_READ_PCT,
        warmup: SimDuration::from_millis(500),
        duration: if quick {
            SimDuration::from_secs(2)
        } else {
            SimDuration::from_secs(10)
        },
        clients_per_node: GRID_CLIENTS_PER_NODE,
    }
}

fn percentile_ns(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * q / 100.0).round() as usize;
    sorted.get(idx).copied()
}

/// Run the bank mix on a fresh 10-node cluster, timing it.
fn grid_leg<P: SimHosted + 'static>(
    protocol: &'static str,
    cluster: &Rc<P>,
    spec: &BankSpec,
) -> GridLeg {
    let t0 = std::time::Instant::now();
    let r = run_bank(Rc::clone(cluster), 10, spec);
    GridLeg {
        protocol,
        virtual_tps: r.throughput,
        commits: r.commits,
        aborts: r.aborts,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Run the write-heavy high-contention grid: the sixth protocol's home
/// turf. Same 10-node jittered network and seed for both protocols.
fn write_heavy_grid(quick: bool) -> WriteHeavyGrid {
    let spec = grid_spec(quick);

    let qr_cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Flat,
        seed: 42,
        latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
        ..Default::default()
    };
    let qr = grid_leg("QR", &Rc::new(Cluster::new(qr_cfg)), &spec);

    let qs_cfg = QStoreConfig {
        nodes: 10,
        seed: 42,
        // The grid leg runs durable: every epoch pays a real append+fsync
        // on the simulated disk, so the reported throughput and fsync
        // percentiles reflect the group-commit protocol, not a cost model.
        durability: Some(DurabilityConfig::default()),
        ..QStoreConfig::default()
    };
    let batch_size = qs_cfg.batch_size;
    let qs_cluster = Rc::new(QStoreCluster::new(qs_cfg));
    let qstore = grid_leg("Q-Store", &qs_cluster, &spec);

    let stats = qs_cluster.stats();
    let (_, wal_fsyncs) = qs_cluster.wal_totals();
    let mut epochs = qs_cluster.epoch_latencies();
    epochs.sort_unstable();
    let mut fsyncs = qs_cluster.fsync_latencies();
    fsyncs.sort_unstable();
    let batching = BatchTelemetry {
        batch_size,
        batches: stats.batches,
        batch_txns: stats.batch_txns,
        wal_fsyncs,
        epoch_p50_ns: percentile_ns(&epochs, 50.0),
        epoch_p99_ns: percentile_ns(&epochs, 99.0),
        fsync_p50_ns: percentile_ns(&fsyncs, 50.0),
        fsync_p99_ns: percentile_ns(&fsyncs, 99.0),
    };
    WriteHeavyGrid {
        qr,
        qstore,
        batching,
    }
}

fn par_leg(quick: bool, threads: usize) -> ParBankResult {
    let spec = ParBankSpec {
        accounts: 32,
        read_pct: 50,
        ops_per_thread: if quick { 2_000 } else { 25_000 },
    };
    run_par_bank(42, threads, &spec)
}

/// Offered-load sweep for the overload grid, in arrivals/s. The low end
/// sits well under capacity, the high end well past the saturation knee.
const OVERLOAD_RATES: [u64; 6] = [100, 200, 400, 800, 1_600, 3_200];
/// Surge factor for the flash-crowd point, in percent of the base rate.
const SURGE_FACTOR_PCT: u32 = 400;

/// One offered-load point of the overload grid.
struct OverloadPoint {
    /// Configured arrival rate (the open-loop generator's set point).
    offered_tps: u64,
    /// Arrivals actually generated during the measurement window.
    offered: u64,
    /// Within-deadline commits.
    goodput: u64,
    /// Arrivals rejected at the admission queue.
    shed: u64,
    /// Commits that landed past their deadline (wasted work).
    late: u64,
    /// Deadline-driven aborts/abandons (driver + engine).
    deadline_aborts: u64,
    /// Times a client wanted a retry token and the budget was dry.
    retry_budget_exhausted: u64,
    /// Deepest admission queue seen on any node.
    max_queue_depth: u64,
    offered_tps_measured: f64,
    goodput_tps: f64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    p999_ns: Option<u64>,
}

/// The whole overload sweep plus the flash-crowd surge point and the
/// knee statistics the degradation gate is judged on.
struct OverloadGrid {
    points: Vec<OverloadPoint>,
    surge: OverloadPoint,
    knee_offered_tps: u64,
    peak_goodput_tps: f64,
    goodput_at_2x_knee_tps: f64,
}

impl OverloadGrid {
    /// The graceful-degradation gate: past twice the saturation knee,
    /// goodput must stay within 1.5x of the peak — admission control and
    /// deadline abandon are supposed to hold the floor, not merely delay
    /// the collapse.
    fn degradation_check(&self) -> Result<(), String> {
        for p in self
            .points
            .iter()
            .filter(|p| p.offered_tps >= 2 * self.knee_offered_tps)
        {
            if p.goodput_tps * 1.5 < self.peak_goodput_tps {
                return Err(format!(
                    "overload degradation: goodput {:.1} tps at {} tps offered is below \
                     1/1.5 of the {:.1} tps peak (knee {} tps)",
                    p.goodput_tps, p.offered_tps, self.peak_goodput_tps, self.knee_offered_tps
                ));
            }
        }
        Ok(())
    }
}

/// Run one open-loop point: a fresh protected QR-CN cluster, the given
/// arrival rate and schedule, uniform keys over 64 accounts so the knee
/// measures capacity rather than lock contention.
fn overload_point(quick: bool, rate: u64, schedule: RateSchedule) -> OverloadPoint {
    let cfg = DtmConfig {
        nodes: 10,
        mode: NestingMode::Closed,
        seed: 42,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        overload: Some(OverloadConfig::default()),
        ..Default::default()
    };
    let nodes = cfg.nodes;
    let proto = Rc::new(Cluster::new(cfg));
    let spec = OpenLoopSpec {
        accounts: 64,
        zipf_milli: 0,
        rate_tps: rate,
        deadline: SimDuration::from_millis(500),
        // The queue bound is the load-shedding knob: it must hold less
        // work than a deadline's worth of service time, or admitted jobs
        // are already doomed and goodput collapses past the knee.
        queue_bound: 4,
        schedule,
        ..OpenLoopSpec::default()
    };
    let duration = if quick {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(6)
    };
    let r = run_open_loop(
        Rc::clone(&proto),
        nodes,
        &spec,
        SimDuration::from_millis(300),
        duration,
    );
    let m = proto.sim().metrics();
    OverloadPoint {
        offered_tps: rate,
        offered: r.offered,
        goodput: r.goodput,
        shed: r.shed,
        late: r.late,
        deadline_aborts: m.deadline_aborts,
        retry_budget_exhausted: m.retry_budget_exhausted,
        max_queue_depth: r.max_queue_depth,
        offered_tps_measured: r.offered_tps,
        goodput_tps: r.goodput_tps,
        p50_ns: m.latency.percentile(50.0),
        p99_ns: m.latency.percentile(99.0),
        p999_ns: m.latency.percentile(99.9),
    }
}

/// Sweep the offered-load grid and run the flash-crowd surge point (base
/// rate at the knee, `SURGE_FACTOR_PCT` for the middle third of the run).
fn overload_grid(quick: bool) -> OverloadGrid {
    let points: Vec<OverloadPoint> = OVERLOAD_RATES
        .iter()
        .map(|&rate| overload_point(quick, rate, RateSchedule::Steady))
        .collect();
    let peak_goodput_tps = points.iter().map(|p| p.goodput_tps).fold(0.0, f64::max);
    // The knee: the smallest offered rate already delivering 95% of peak
    // goodput — beyond it, extra offered load is shed or times out.
    let knee_offered_tps = points
        .iter()
        .find(|p| p.goodput_tps >= peak_goodput_tps * 0.95)
        .map_or(OVERLOAD_RATES[0], |p| p.offered_tps);
    let past_2x = points
        .iter()
        .filter(|p| p.offered_tps >= 2 * knee_offered_tps)
        .map(|p| p.goodput_tps)
        .fold(f64::INFINITY, f64::min);
    // If the sweep never reaches twice the knee the gate is vacuous;
    // report the top point so the JSON stays finite.
    let goodput_at_2x_knee_tps = if past_2x.is_finite() {
        past_2x
    } else {
        points.last().map_or(0.0, |p| p.goodput_tps)
    };
    let duration = if quick { 2u64 } else { 6 };
    let surge_at = SimDuration::from_secs(duration / 3).max(SimDuration::from_millis(500));
    let surge = overload_point(
        quick,
        knee_offered_tps,
        RateSchedule::FlashCrowd {
            at: surge_at,
            lasting: surge_at,
            factor_pct: SURGE_FACTOR_PCT,
        },
    );
    OverloadGrid {
        points,
        surge,
        knee_offered_tps,
        peak_goodput_tps,
        goodput_at_2x_knee_tps,
    }
}

// ---------------------------------------------------------------------------
// Hot-loop event-core microbench: timing wheel vs binary heap.

/// Outstanding-chain sweep for the event-core hot loop. Each "client" is a
/// self-perpetuating fire-and-forget ping (the handler re-sends on every
/// receive), so the simulator holds exactly this many future events at all
/// times — the regime where heap `sift` cost and cache misses dominate.
const HOT_LOOP_CLIENTS: [u64; 3] = [100_000, 300_000, 1_000_000];
const HOT_LOOP_CLIENTS_QUICK: [u64; 2] = [20_000, 100_000];
/// Events each leg executes before the clock stops, so every point does
/// comparable work regardless of how many clients are outstanding.
const HOT_LOOP_TARGET_EVENTS: u64 = 4_000_000;
const HOT_LOOP_TARGET_EVENTS_QUICK: u64 = 400_000;
/// CI gate on wheel-vs-heap events/sec at the largest client count. The
/// ratio is machine-independent (both legs run on the same host in the
/// same process), so the full-mode bar is the tentpole's ≥2x claim; quick
/// mode only guards against the wheel regressing below the heap.
const HOT_LOOP_MIN_RATIO: f64 = 2.0;
const HOT_LOOP_MIN_RATIO_QUICK: f64 = 1.05;
const HOT_LOOP_NODES: usize = 4;

/// One queue implementation's measurement at one client count.
struct HotLoopLeg {
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

/// Heap and wheel, same seed and client count.
struct HotLoopPoint {
    clients: u64,
    heap: HotLoopLeg,
    wheel: HotLoopLeg,
    /// wheel events/sec ÷ heap events/sec.
    ratio: f64,
}

/// The whole sweep plus the gate parameters it was run under.
struct HotLoopGrid {
    points: Vec<HotLoopPoint>,
    target_events: u64,
    min_ratio: f64,
    /// Peak RSS of the process once the sweep has run.
    peak_rss_kb: u64,
}

impl HotLoopGrid {
    /// The events/sec regression gate, judged at the largest client count
    /// (the point the tentpole claim is about).
    fn regression_check(&self) -> Result<(), String> {
        let last = self
            .points
            .last()
            .ok_or_else(|| "hot-loop grid is empty".to_string())?;
        if last.ratio < self.min_ratio {
            return Err(format!(
                "event-core regression: wheel is only {:.2}x the heap at {} clients \
                 ({:.0} vs {:.0} events/s wall, gate {:.2}x)",
                last.ratio,
                last.clients,
                last.wheel.events_per_sec,
                last.heap.events_per_sec,
                self.min_ratio
            ));
        }
        Ok(())
    }
}

#[derive(Clone, Copy)]
struct Ping;
impl SimMessage for Ping {}

/// One hot-loop leg: `clients` perpetual ping chains over a 4-node ring
/// with jittered 5 ms links (the jitter spreads arrivals across wheel
/// pages — a constant latency would degenerate into one bucket), run
/// until `target_events` simulator events have executed. Wall time covers
/// seeding too: the initial `clients` pushes are queue work.
fn hot_loop_leg(queue: EventQueueKind, clients: u64, target_events: u64) -> HotLoopLeg {
    let mut cfg = SimConfig::new(
        7,
        Box::new(JitteredLatency::new(SimDuration::from_millis(5), 0.4)),
    );
    cfg.queue = queue;
    let sim: Sim<Ping> = Sim::new(cfg);
    let nodes = sim.add_nodes(HOT_LOOP_NODES);
    for (i, &id) in nodes.iter().enumerate() {
        let next = nodes[(i + 1) % HOT_LOOP_NODES];
        sim.set_handler(id, move |ctx, _env| ctx.send(next, Ping));
    }
    let t0 = std::time::Instant::now();
    for k in 0..clients {
        let from = (k % HOT_LOOP_NODES as u64) as u32;
        sim.send(
            NodeId(from),
            NodeId((from + 1) % HOT_LOOP_NODES as u32),
            Ping,
        );
    }
    let mut horizon = SimTime::ZERO;
    let mut events = 0;
    while events < target_events {
        horizon += SimDuration::from_millis(2);
        sim.run_until(horizon);
        events = sim.metrics().events;
    }
    let wall = t0.elapsed().as_secs_f64();
    HotLoopLeg {
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-9),
    }
}

/// Sweep the hot-loop client grid on both queue implementations.
fn hot_loop_grid(quick: bool) -> HotLoopGrid {
    let (clients, target_events, min_ratio) = if quick {
        (
            &HOT_LOOP_CLIENTS_QUICK[..],
            HOT_LOOP_TARGET_EVENTS_QUICK,
            HOT_LOOP_MIN_RATIO_QUICK,
        )
    } else {
        (
            &HOT_LOOP_CLIENTS[..],
            HOT_LOOP_TARGET_EVENTS,
            HOT_LOOP_MIN_RATIO,
        )
    };
    let points = clients
        .iter()
        .map(|&n| {
            let heap = hot_loop_leg(EventQueueKind::Heap, n, target_events);
            let wheel = hot_loop_leg(EventQueueKind::Wheel, n, target_events);
            let ratio = wheel.events_per_sec / heap.events_per_sec.max(1e-9);
            HotLoopPoint {
                clients: n,
                heap,
                wheel,
                ratio,
            }
        })
        .collect();
    HotLoopGrid {
        points,
        target_events,
        min_ratio,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Peak resident set size of this process in kB, from `/proc/self/status`
/// (`VmHWM`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `{"p50": .., "p99": .., "p999": ..}`, `null` where a percentile has
/// no samples.
fn latency_json(p50: Option<u64>, p99: Option<u64>, p999: Option<u64>) -> Json {
    obj! {"p50" => p50, "p99" => p99, "p999" => p999}
}

impl SimLeg {
    fn json(&self) -> Json {
        obj! {
            "protocol" => self.protocol,
            "virtual_txns_per_sec" => Json::Fixed(self.virtual_tps, 2),
            "commits" => self.commits,
            "aborts" => self.aborts,
            "wall_secs" => Json::Fixed(self.wall_secs, 3),
            "events_per_sec_wall" => Json::Fixed(self.events_per_sec, 0),
            "latency_virtual_ns" => latency_json(self.p50_ns, self.p99_ns, self.p999_ns),
        }
    }
}

impl GridLeg {
    /// This leg's members followed by those of the object `extra`.
    fn json(&self, extra: Json) -> Json {
        let mut leg = obj! {
            "protocol" => self.protocol,
            "virtual_txns_per_sec" => Json::Fixed(self.virtual_tps, 2),
            "commits" => self.commits,
            "aborts" => self.aborts,
            "wall_secs" => Json::Fixed(self.wall_secs, 3),
        };
        if let (Json::Obj(members), Json::Obj(more)) = (&mut leg, extra) {
            members.extend(more);
        }
        leg
    }
}

impl WriteHeavyGrid {
    fn json(&self) -> Json {
        let b = &self.batching;
        let batching = obj! {
            "batch_size" => b.batch_size,
            "batches" => b.batches,
            "batch_txns" => b.batch_txns,
            "wal_fsyncs" => b.wal_fsyncs,
            "epoch_latency_virtual_ns" => obj! {"p50" => b.epoch_p50_ns, "p99" => b.epoch_p99_ns},
            "disk_fsync_virtual_ns" => obj! {"p50" => b.fsync_p50_ns, "p99" => b.fsync_p99_ns},
        };
        obj! {
            "accounts" => GRID_ACCOUNTS,
            "read_pct" => u64::from(GRID_READ_PCT),
            "clients_per_node" => GRID_CLIENTS_PER_NODE,
            "qr" => self.qr.json(obj! {}),
            "qstore" => self.qstore.json(batching),
        }
    }
}

impl OverloadPoint {
    fn json(&self) -> Json {
        obj! {
            "offered_load" => self.offered_tps,
            "offered_arrivals" => self.offered,
            "offered_tps_measured" => Json::Fixed(self.offered_tps_measured, 1),
            "goodput" => self.goodput,
            "goodput_tps" => Json::Fixed(self.goodput_tps, 1),
            "shed" => self.shed,
            "late" => self.late,
            "deadline_aborts" => self.deadline_aborts,
            "retry_budget_exhausted" => self.retry_budget_exhausted,
            "max_queue_depth" => self.max_queue_depth,
            "latency_virtual_ns" => latency_json(self.p50_ns, self.p99_ns, self.p999_ns),
        }
    }
}

impl OverloadGrid {
    fn json(&self) -> Json {
        obj! {
            "protocol" => "QR-CN",
            "nodes" => 10u64,
            "deadline_ms" => 500u64,
            "points" => Json::Arr(self.points.iter().map(OverloadPoint::json).collect()),
            "surge" => obj! {"factor_pct" => u64::from(SURGE_FACTOR_PCT), "point" => self.surge.json()},
            "knee_offered_tps" => self.knee_offered_tps,
            "peak_goodput_tps" => Json::Fixed(self.peak_goodput_tps, 1),
            "goodput_at_2x_knee_tps" => Json::Fixed(self.goodput_at_2x_knee_tps, 1),
        }
    }
}

impl HotLoopLeg {
    fn json(&self) -> Json {
        obj! {
            "events" => self.events,
            "wall_secs" => Json::Fixed(self.wall_secs, 3),
            "events_per_sec_wall" => Json::Fixed(self.events_per_sec, 0),
        }
    }
}

impl HotLoopGrid {
    fn json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            obj! {
                "clients" => p.clients,
                "heap" => p.heap.json(),
                "wheel" => p.wheel.json(),
                "wheel_vs_heap" => Json::Fixed(p.ratio, 3),
            }
        });
        obj! {
            "nodes" => HOT_LOOP_NODES,
            "target_events" => self.target_events,
            "min_ratio" => Json::Fixed(self.min_ratio, 2),
            "peak_rss_kb" => self.peak_rss_kb,
            "points" => Json::Arr(points.collect()),
            "ratio_at_max_clients" => Json::Fixed(self.points.last().map_or(0.0, |p| p.ratio), 3),
        }
    }
}

fn par_json(r: &ParBankResult) -> Json {
    obj! {
        "protocol" => "PAR-TL2",
        "threads" => r.threads,
        "txns_per_sec" => Json::Fixed(r.throughput, 0),
        "commits" => r.commits,
        "aborts" => r.aborts,
        "wall_secs" => Json::Fixed(r.wall_secs, 3),
        "violations" => r.violations,
        "latency_wall_ns" => latency_json(r.p50_ns, r.p99_ns, r.p999_ns),
    }
}
fn print_summary(report: &Report, written: &[&Path]) {
    let Report {
        cores,
        sim,
        grid,
        overload,
        hot,
        par,
        ..
    } = report;
    println!("## perf — bank workload, wall-clock baseline ({cores} host cores)\n");
    println!(
        "sim    {:>8}: {:9.1} txn/s (virtual), {} commits, {:.0} sim events/s wall",
        sim.protocol, sim.virtual_tps, sim.commits, sim.events_per_sec
    );
    println!(
        "\ngrid   write-heavy/hot ({GRID_ACCOUNTS} accounts, {GRID_READ_PCT}% reads, \
         {GRID_CLIENTS_PER_NODE} clients/node):"
    );
    for leg in [&grid.qr, &grid.qstore] {
        println!(
            "       {:>8}: {:9.1} txn/s (virtual), {} commits, {} aborts",
            leg.protocol, leg.virtual_tps, leg.commits, leg.aborts
        );
    }
    let b = &grid.batching;
    println!(
        "       Q-Store batching: size {}, {} batches / {} batched txns ({:.1} avg), \
         {} fsyncs, epoch p50 {} ms p99 {} ms, fsync p50 {} µs p99 {} µs",
        b.batch_size,
        b.batches,
        b.batch_txns,
        b.batch_txns as f64 / (b.batches.max(1)) as f64,
        b.wal_fsyncs,
        b.epoch_p50_ns.map_or(0, |n| n / 1_000_000),
        b.epoch_p99_ns.map_or(0, |n| n / 1_000_000),
        b.fsync_p50_ns.map_or(0, |n| n / 1_000),
        b.fsync_p99_ns.map_or(0, |n| n / 1_000),
    );
    println!(
        "       Q-Store vs QR: {:.2}x on the write-heavy grid\n",
        grid.qstore.virtual_tps / grid.qr.virtual_tps.max(1e-9)
    );
    println!("overload open-loop grid (QR-CN, protections armed, 500 ms deadlines):");
    for p in &overload.points {
        println!(
            "       offered {:>5} tps: goodput {:>7.1} tps, shed {:>6}, deadline aborts {:>6}, \
             budget dry {:>4}, p99 {} ms",
            p.offered_tps,
            p.goodput_tps,
            p.shed,
            p.deadline_aborts,
            p.retry_budget_exhausted,
            p.p99_ns.map_or(0, |n| n / 1_000_000),
        );
    }
    let s = &overload.surge;
    println!(
        "       flash-crowd {SURGE_FACTOR_PCT}% @ {} tps: goodput {:.1} tps, shed {}, \
         deadline aborts {}, p99 {} ms p999 {} ms",
        s.offered_tps,
        s.goodput_tps,
        s.shed,
        s.deadline_aborts,
        s.p99_ns.map_or(0, |n| n / 1_000_000),
        s.p999_ns.map_or(0, |n| n / 1_000_000),
    );
    println!(
        "       knee {} tps, peak goodput {:.1} tps, goodput past 2x knee {:.1} tps \
         (graceful-degradation gate: within 1.5x of peak)\n",
        overload.knee_offered_tps, overload.peak_goodput_tps, overload.goodput_at_2x_knee_tps
    );
    println!(
        "hot-loop event core (wheel vs heap, {} target events, gate {:.2}x):",
        hot.target_events, hot.min_ratio
    );
    for p in &hot.points {
        println!(
            "       {:>9} clients: heap {:>10.0} ev/s, wheel {:>10.0} ev/s — {:.2}x",
            p.clients, p.heap.events_per_sec, p.wheel.events_per_sec, p.ratio
        );
    }
    println!();
    for r in par {
        println!(
            "par    TL2 x{:<3}: {:9.0} txn/s (wall),   {} commits, {} aborts, p50 {} µs, p99 {} µs",
            r.threads,
            r.throughput,
            r.commits,
            r.aborts,
            r.p50_ns.map_or(0, |n| n / 1_000),
            r.p99_ns.map_or(0, |n| n / 1_000),
        );
    }
    println!(
        "\npar speedup x{} vs x1: {:.2} (host has {cores} cores)",
        par[1].threads,
        report.par_speedup()
    );
    println!("serializability audit: clean on both par runs");
    for path in written {
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key name in `j`, at any depth.
    fn keys(j: &Json, out: &mut Vec<&'static str>) {
        match j {
            Json::Obj(members) => {
                for (k, v) in members {
                    out.push(k);
                    keys(v, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|i| keys(i, out)),
            _ => {}
        }
    }

    #[test]
    fn report_tree_carries_every_key_downstream_tooling_reads() {
        // Zero and absent measurements still print every key.
        let par = |threads| ParBankResult {
            threads,
            ops: 0,
            commits: 0,
            aborts: 0,
            wall_secs: 0.0,
            throughput: 0.0,
            p50_ns: None,
            p99_ns: None,
            p999_ns: None,
            violations: 0,
            total_balance: 0,
        };
        let overload = OverloadGrid {
            points: vec![point(100, 98.0), point(200, 180.0), point(400, 170.0)],
            surge: point(200, 150.0),
            knee_offered_tps: 200,
            peak_goodput_tps: 180.0,
            goodput_at_2x_knee_tps: 170.0,
        };
        assert!(overload.degradation_check().is_ok());
        let hot = hot_grid(2.4);
        assert!(hot.regression_check().is_ok());
        let report = Report {
            quick: true,
            cores: 2,
            sim: SimLeg::default(),
            grid: WriteHeavyGrid::default(),
            par: [par(1), par(2)],
            overload,
            hot,
            peak_rss_kb: 30_000,
        };
        assert!(report.gate().is_ok());
        let doc = report.json();
        json::write(&doc).expect("a report of finite numbers prints");
        let mut found = Vec::new();
        keys(&doc, &mut found);
        for key in [
            "host",
            "sim",
            "par",
            "txns_per_sec",
            "peak_rss_kb",
            "write_heavy_grid",
            "batch_size",
            "epoch_latency_virtual_ns",
            "disk_fsync_virtual_ns",
            "overload_grid",
            "offered_load",
            "goodput",
            "shed",
            "deadline_aborts",
            "retry_budget_exhausted",
            "knee_offered_tps",
            "hot_loop_grid",
            "events_per_sec_wall",
            "wheel_vs_heap",
            "ratio_at_max_clients",
            "par_speedup",
        ] {
            assert!(found.contains(&key), "missing {key}");
        }
        let Json::Obj(cmp) = report.wheel_vs_heap_json() else {
            panic!("the comparison document is an object");
        };
        assert_eq!(cmp, vec![("hot_loop_grid", report.hot.json())]);
    }

    /// A synthetic overload point measuring `goodput_tps` at `offered_tps`.
    fn point(offered_tps: u64, goodput_tps: f64) -> OverloadPoint {
        OverloadPoint {
            offered_tps,
            offered: offered_tps * 2,
            goodput: (goodput_tps * 2.0) as u64,
            shed: 40,
            late: 12,
            deadline_aborts: 30,
            retry_budget_exhausted: 5,
            max_queue_depth: 17,
            offered_tps_measured: offered_tps as f64 * 0.99,
            goodput_tps,
            p50_ns: Some(4_000_000),
            p99_ns: Some(60_000_000),
            p999_ns: None,
        }
    }

    /// A synthetic hot-loop grid whose largest point has `last_ratio`.
    fn hot_grid(last_ratio: f64) -> HotLoopGrid {
        let leg = |eps: f64| HotLoopLeg {
            events: 400_000,
            wall_secs: 400_000.0 / eps,
            events_per_sec: eps,
        };
        HotLoopGrid {
            points: vec![
                HotLoopPoint {
                    clients: 20_000,
                    heap: leg(2.0e6),
                    wheel: leg(3.0e6),
                    ratio: 1.5,
                },
                HotLoopPoint {
                    clients: 100_000,
                    heap: leg(1.0e6),
                    wheel: leg(1.0e6 * last_ratio),
                    ratio: last_ratio,
                },
            ],
            target_events: 400_000,
            min_ratio: 2.0,
            peak_rss_kb: 30_000,
        }
    }

    #[test]
    fn hot_loop_gate_catches_a_wheel_regression() {
        let err = hot_grid(1.4).regression_check().unwrap_err();
        assert!(err.contains("event-core regression"), "got: {err}");
        assert!(
            hot_grid(2.0).regression_check().is_ok(),
            "gate is >=, not >"
        );
    }

    #[test]
    fn degradation_gate_catches_a_goodput_collapse() {
        let collapsed = OverloadGrid {
            points: vec![point(100, 100.0), point(200, 180.0), point(400, 40.0)],
            surge: point(200, 150.0),
            knee_offered_tps: 200,
            peak_goodput_tps: 180.0,
            goodput_at_2x_knee_tps: 40.0,
        };
        let err = collapsed.degradation_check().unwrap_err();
        assert!(err.contains("overload degradation"), "got: {err}");
    }

    #[test]
    fn epoch_percentiles_handle_empty_and_sorted_inputs() {
        assert_eq!(percentile_ns(&[], 50.0), None);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), Some(51));
        assert_eq!(percentile_ns(&v, 99.0), Some(99));
        assert_eq!(percentile_ns(&[7], 99.9), Some(7));
    }
}
