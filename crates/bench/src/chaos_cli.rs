//! `repro chaos` — randomized fault injection with invariant checking.
//!
//! Drives the [`qrdtm_chaos`] nemesis against any of the six protocol
//! configurations (QR, QR-CN, QR-CHK, TFA/HyFlow, Decent-STM, Q-Store)
//! under the
//! bank workload: generates seeded [`FaultPlan`]s (budget masked to what
//! each protocol can honestly tolerate), runs them, checks balance
//! conservation, serializability, liveness and re-convergence, and — on a
//! violation — shrinks the plan to a minimal deterministic reproducer.

use std::path::PathBuf;
use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_chaos::{
    generate, run_plan, shrink, ChaosReport, ChaosSpec, ChaosViolation, FaultBudget, FaultPlan,
};
use qrdtm_core::{
    Cluster, DetectorConfig, DtmConfig, DurabilityConfig, NestingMode, OverloadConfig,
};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{Metrics, SimDuration};
use qrdtm_workloads::OpenLoopSpec;

use crate::coverage::Coverage;

/// One of the six protocol configurations the nemesis can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Proto {
    Qr,
    QrCn,
    QrChk,
    Tfa,
    Decent,
    QStore,
}

const ALL_PROTOS: [Proto; 6] = [
    Proto::Qr,
    Proto::QrCn,
    Proto::QrChk,
    Proto::Tfa,
    Proto::Decent,
    Proto::QStore,
];

impl Proto {
    fn label(self) -> &'static str {
        match self {
            Proto::Qr => "qr",
            Proto::QrCn => "qr-cn",
            Proto::QrChk => "qr-chk",
            Proto::Tfa => "tfa",
            Proto::Decent => "decent",
            Proto::QStore => "qstore",
        }
    }

    fn parse(s: &str) -> Option<Vec<Proto>> {
        if s == "all" {
            return Some(ALL_PROTOS.to_vec());
        }
        ALL_PROTOS.iter().find(|p| p.label() == s).map(|p| vec![*p])
    }

    /// The fault budget this protocol can honestly be subjected to: the QR
    /// configurations take the full vocabulary (plus amnesiac restarts
    /// when durability is armed), the baselines (which the paper states
    /// are not fault-tolerant) only gray failures.
    fn budget(self, events: usize, durable: bool) -> FaultBudget {
        match self {
            Proto::Qr | Proto::QrCn | Proto::QrChk if durable => FaultBudget::durable(events),
            Proto::Qr | Proto::QrCn | Proto::QrChk => FaultBudget::full(events),
            // Q-Store keeps a per-replica batch WAL when durability is
            // armed, so amnesiac restarts and torn tails are honest faults
            // for it too; without the disk model it takes the full
            // vocabulary minus durability.
            Proto::QStore if durable => FaultBudget::durable(events),
            Proto::QStore => FaultBudget::full(events),
            Proto::Tfa | Proto::Decent => FaultBudget::gray(events),
        }
    }

    /// Whether this protocol can run with the failure detector in charge
    /// (the QR family keeps a reconfigurable quorum view; Q-Store keeps a
    /// reconfigurable planner view with heartbeat-driven failover).
    fn supports_detector(self) -> bool {
        matches!(self, Proto::Qr | Proto::QrCn | Proto::QrChk | Proto::QStore)
    }
}

struct ChaosArgs {
    smoke: bool,
    detector: bool,
    amnesia: bool,
    overload: bool,
    seeds: std::ops::RangeInclusive<u64>,
    protos: Vec<Proto>,
    events: usize,
    horizon_ms: Option<u64>,
    nodes: usize,
    plan: Option<PathBuf>,
    save_plan: Option<PathBuf>,
    fig10: Option<usize>,
}

fn chaos_usage() -> ! {
    eprintln!(
        "usage: repro chaos [--smoke] [--detector] [--amnesia] [--overload] \
         [--proto qr|qr-cn|qr-chk|tfa|decent|qstore|all] \
         [--seed S] [--seeds K] [--events E] [--nodes N] [--horizon-ms H] \
         [--fig10 F] [--plan FILE] [--save-plan FILE]\n\
         \x20      K >= 1 with S + K - 1 < 2^64, N >= 2 (>= 3 when qstore runs), H >= 1"
    );
    std::process::exit(2);
}

fn parse_args(mut args: impl Iterator<Item = String>) -> ChaosArgs {
    let mut a = ChaosArgs {
        smoke: false,
        detector: false,
        amnesia: false,
        overload: false,
        seeds: 1..=1,
        protos: ALL_PROTOS.to_vec(),
        events: 6,
        horizon_ms: None,
        nodes: 10,
        plan: None,
        save_plan: None,
        fig10: None,
    };
    let val = |args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| chaos_usage())
    };
    let (mut seed, mut seeds) = (1u64, 1u64);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => a.smoke = true,
            "--detector" => a.detector = true,
            "--amnesia" => a.amnesia = true,
            "--overload" => a.overload = true,
            "--proto" => {
                a.protos = Proto::parse(&val(&mut args)).unwrap_or_else(|| chaos_usage());
            }
            "--seed" => seed = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--seeds" => seeds = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--events" => a.events = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--nodes" => a.nodes = val(&mut args).parse().unwrap_or_else(|_| chaos_usage()),
            "--horizon-ms" => {
                a.horizon_ms = Some(val(&mut args).parse().unwrap_or_else(|_| chaos_usage()));
            }
            "--fig10" => a.fig10 = Some(val(&mut args).parse().unwrap_or_else(|_| chaos_usage())),
            "--plan" => a.plan = Some(PathBuf::from(val(&mut args))),
            "--save-plan" => a.save_plan = Some(PathBuf::from(val(&mut args))),
            _ => chaos_usage(),
        }
    }
    // A run needs at least one seed, faults two nodes to break things
    // between, Q-Store a majority of at least two, and fault placement a
    // nonempty horizon.
    let last = seeds.checked_sub(1).and_then(|k| seed.checked_add(k));
    let qstore = a.protos.contains(&Proto::QStore);
    if last.is_none() || a.nodes < 2 || (qstore && a.nodes < 3) || a.horizon_ms == Some(0) {
        chaos_usage();
    }
    a.seeds = seed..=last.unwrap_or(seed);
    a
}

/// Entry point for `repro chaos ...`. Returns the process exit code:
/// 0 when every run's invariants held, 1 on any violation.
pub fn run(args: impl Iterator<Item = String>) -> i32 {
    let mut a = parse_args(args);
    if a.smoke {
        return if a.amnesia {
            amnesia_smoke()
        } else if a.detector {
            detector_smoke()
        } else if a.overload {
            overload_smoke()
        } else {
            smoke()
        };
    }
    let mut spec = ChaosSpec::default();
    if a.overload {
        // Replace the closed-loop clients with open-loop traffic: the
        // surge/flash-crowd plan verbs become applicable and the goodput
        // re-convergence (metastability) checker is armed.
        spec.overload = Some(overload_traffic());
    }
    if a.detector {
        // Only the QR family and Q-Store keep a reconfigurable view a
        // detector can drive; baselines are dropped from an "all"
        // selection.
        let before = a.protos.len();
        a.protos.retain(|p| p.supports_detector());
        if a.protos.is_empty() {
            eprintln!("chaos: --detector requires a reconfigurable-view protocol (qr, qr-cn, qr-chk, qstore)");
            return 2;
        }
        if a.protos.len() < before {
            println!("(detector mode: baselines skipped — no reconfigurable view)\n");
        }
    }
    if let Some(ms) = a.horizon_ms {
        spec.horizon = SimDuration::from_millis(ms);
    }
    // A plan fixed on the command line (replay or Fig. 10 schedule)
    // overrides seeded generation; the seed still varies the workload.
    let fixed_plan: Option<FaultPlan> = if let Some(path) = &a.plan {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("chaos: cannot read {}: {e}", path.display());
                return 2;
            }
        };
        match FaultPlan::parse(&text) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("chaos: bad plan {}: {e}", path.display());
                return 2;
            }
        }
    } else {
        a.fig10.map(|k| fig10_plan(k, spec.horizon))
    };
    println!("## chaos — randomized fault injection + invariant checking\n");
    let mut suite = Suite {
        nodes: a.nodes,
        detector: a.detector,
        durable: a.amnesia,
        protect: a.overload,
        save_to: a.save_plan.clone(),
        ..Suite::new("chaos", spec, &[], &[])
    };
    for seed in a.seeds.clone() {
        for &proto in &a.protos {
            let budget = if a.overload {
                // Surges, flash crowds and gray failures — the overload
                // verbs act on the traffic generator, so every protocol
                // family can take this budget.
                FaultBudget::overload(a.events)
            } else {
                proto.budget(a.events, a.amnesia)
            };
            let plan = match &fixed_plan {
                Some(p) => p.clone(),
                None => generate(seed, a.nodes as u32, suite.spec.horizon, &budget),
            };
            if let Some(path) = &a.save_plan {
                suite.save_plan(path, &plan, proto, seed);
            }
            suite.run(proto, seed, &plan);
        }
    }
    suite.finish()
}

/// The paper's Fig. 10 crash schedule as a plan: `k` successive crashes of
/// the current first read-quorum member, spread over the fault window.
fn fig10_plan(k: usize, horizon: SimDuration) -> FaultPlan {
    let start = SimDuration::from_nanos(horizon.as_nanos() / 5);
    let span = horizon.as_nanos() * 3 / 5;
    let spacing = SimDuration::from_nanos(span / k.max(1) as u64);
    FaultPlan::fig10(k, start, spacing)
}

/// A counter a smoke suite sums over its runs: its name and how to read
/// it from a run's metrics.
type Counter = (&'static str, fn(&Metrics) -> u64);

const DETECTOR_COUNTERS: [Counter; 5] = [
    ("heartbeats_sent", |m| m.heartbeats_sent),
    ("suspicions", |m| m.suspicions),
    ("false_suspicions", |m| m.false_suspicions),
    ("rpc_retries", |m| m.rpc_retries),
    ("hedged_wins", |m| m.hedged_wins),
];

const RECOVERY_COUNTERS: [Counter; 4] = [
    ("log_replays", |m| m.log_replays),
    ("torn_tails", |m| m.torn_tails),
    ("repair_rounds", |m| m.repair_rounds),
    ("repaired_objects", |m| m.repaired_objects),
];

const OVERLOAD_COUNTERS: [Counter; 4] = [
    ("admission_shed", |m| m.admission_shed),
    ("deadline_aborts", |m| m.deadline_aborts),
    ("retry_budget_exhausted", |m| m.retry_budget_exhausted),
    ("client_retries", |m| m.client_retries),
];

/// A batch of chaos runs sharing one spec and fault mode: the main
/// `repro chaos` loop or one smoke suite. It counts the runs that broke an
/// invariant and the coverage a smoke suite must reach before it may
/// pass: a minimum number of runs per protocol family, and counters that
/// must each fire at least once.
struct Suite {
    name: &'static str,
    spec: ChaosSpec,
    nodes: usize,
    /// Arm the failure detector in every cluster's config (oracle off).
    detector: bool,
    durable: bool,
    protect: bool,
    /// Where to write a violating run's minimized plan.
    save_to: Option<PathBuf>,
    failures: usize,
    counters: &'static [Counter],
    coverage: Coverage,
}

impl Suite {
    /// A 10-node suite without fault modes.
    fn new(
        name: &'static str,
        spec: ChaosSpec,
        min_runs: &[(Proto, u64)],
        counters: &'static [Counter],
    ) -> Self {
        let minimums = min_runs
            .iter()
            .map(|&(p, n)| (p.label(), n))
            .chain(counters.iter().map(|&(name, _)| (name, 1)));
        Suite {
            name,
            spec,
            nodes: 10,
            detector: false,
            durable: false,
            protect: false,
            save_to: None,
            failures: 0,
            counters,
            coverage: Coverage::new(minimums),
        }
    }

    /// `chaos --smoke`: the Q-Store arm must run at least once.
    fn smoke() -> Self {
        Suite::new(
            "chaos smoke",
            ChaosSpec::smoke(),
            &[(Proto::QStore, 1)],
            &[],
        )
    }

    /// `chaos --smoke --detector`: every detector mechanism must fire.
    fn detector() -> Self {
        Suite {
            detector: true,
            ..Suite::new(
                "chaos detector smoke",
                ChaosSpec::smoke(),
                &[],
                &DETECTOR_COUNTERS,
            )
        }
    }

    /// `chaos --smoke --amnesia`: every recovery mechanism must fire, and
    /// the durable Q-Store batch-WAL arm must run at least 20 times.
    fn amnesia() -> Self {
        Suite {
            durable: true,
            ..Suite::new(
                "chaos amnesia smoke",
                ChaosSpec::smoke(),
                &[(Proto::QStore, 20)],
                &RECOVERY_COUNTERS,
            )
        }
    }

    /// `chaos --smoke --overload`: every protection must fire, and each of
    /// the six families must take at least 20 protected runs.
    fn overload() -> Self {
        let spec = ChaosSpec {
            overload: Some(overload_traffic()),
            // Families without engine-side admission control (the
            // baselines and Q-Store run driver-side protection only)
            // recover more slowly from a surge; a quarter of the pre-fault
            // goodput is the graceful-degradation bar here, still an order
            // of magnitude above the unprotected collapse the validation
            // arm shows.
            reconverge_factor_pct: 400,
            ..ChaosSpec::smoke()
        };
        let six_families = ALL_PROTOS.map(|p| (p, 20));
        Suite {
            protect: true,
            ..Suite::new(
                "chaos overload smoke",
                spec,
                &six_families,
                &OVERLOAD_COUNTERS,
            )
        }
    }

    /// Run `plan` on a fresh `proto` cluster, print its report line and
    /// count the run. On a violation, also shrink the plan to a minimal
    /// reproducer and print it.
    fn run(&mut self, proto: Proto, seed: u64, plan: &FaultPlan) {
        let (nodes, r) = (self.nodes, self.run_plan(proto, seed, plan));
        println!(
            "[{:<7} seed={seed} nodes={nodes}] {}",
            proto.label(),
            r.summary_line(),
        );
        let m = &r.metrics;
        if self.detector {
            println!(
                "    detector: hb={} suspicions={} (false {}) rejoins={} epoch={} \
                 retries={} hedged {}/{} wasted={}",
                m.heartbeats_sent,
                m.suspicions,
                m.false_suspicions,
                m.rejoins,
                r.view_epoch,
                m.rpc_retries,
                m.hedged_wins,
                m.hedged_calls,
                m.wasted_replies,
            );
        }
        // Recovery counters are zero unless an amnesiac restart actually
        // replayed a log and/or ran quorum repair — print only then.
        if m.log_replays + m.torn_tails + m.repair_rounds + m.repaired_objects + m.repair_bytes > 0
        {
            println!(
                "    recovery: log_replays={} torn_tails={} repair_rounds={} \
                 repaired_objects={} repair_bytes={}",
                m.log_replays, m.torn_tails, m.repair_rounds, m.repaired_objects, m.repair_bytes,
            );
        }
        self.count(Some(proto), m);
        if r.ok() {
            return;
        }
        self.failures += 1;
        for v in &r.violations {
            println!("    ! {v}");
        }
        println!(
            "    shrinking the {}-event plan to a minimal reproducer...",
            plan.len()
        );
        let min = shrink(plan, |cand| !self.run_plan(proto, seed, cand).ok());
        println!("    minimized plan ({} event(s)):", min.len());
        for line in min.to_text().lines() {
            println!("      {line}");
        }
        if let Some(path) = &self.save_to {
            self.save_plan(path, &min, proto, seed);
            println!("    minimized plan written to {}", path.display());
        }
        println!(
            "    repro: save the plan to FILE and run `repro chaos {} --plan FILE` \
             (fully deterministic)",
            self.repro_args(proto, seed)
        );
    }

    /// The `repro chaos` flags that replay one of this suite's runs: the
    /// protocol, seed and node count, the horizon when it is not the
    /// default, and every mode flag the suite runs with.
    fn repro_args(&self, proto: Proto, seed: u64) -> String {
        let mut args = format!(
            "--proto {} --seed {seed} --nodes {}",
            proto.label(),
            self.nodes
        );
        if self.spec.horizon != ChaosSpec::default().horizon {
            args += &format!(" --horizon-ms {}", self.spec.horizon.as_nanos() / 1_000_000);
        }
        for (on, flag) in [
            (self.detector, " --detector"),
            (self.durable, " --amnesia"),
            (self.protect, " --overload"),
        ] {
            if on {
                args += flag;
            }
        }
        args
    }

    /// Write `plan` to `path`, headed by the flags that replay it.
    fn save_plan(&self, path: &std::path::Path, plan: &FaultPlan, proto: Proto, seed: u64) {
        let text = format!(
            "# generated for {}\n{}",
            self.repro_args(proto, seed),
            plan.to_text()
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("chaos: cannot write {}: {e}", path.display());
        }
    }

    /// Run `plan` on a fresh `proto` cluster built for this suite's spec
    /// and fault modes. A new cluster per run is what makes replays (and
    /// the shrinker's re-runs) exact.
    fn run_plan(&self, proto: Proto, seed: u64, plan: &FaultPlan) -> ChaosReport {
        let (nodes, spec) = (self.nodes, &self.spec);
        match proto {
            Proto::Qr => run_plan(self.qr(NestingMode::Flat, seed), nodes, spec, plan),
            Proto::QrCn => run_plan(self.qr(NestingMode::Closed, seed), nodes, spec, plan),
            Proto::QrChk => run_plan(self.qr(NestingMode::Checkpoint, seed), nodes, spec, plan),
            Proto::Tfa => {
                let cfg = TfaConfig {
                    nodes,
                    seed,
                    ..Default::default()
                };
                run_plan(Rc::new(TfaCluster::new(cfg)), nodes, spec, plan)
            }
            Proto::Decent => {
                let cfg = DecentConfig {
                    nodes,
                    seed,
                    ..Default::default()
                };
                run_plan(Rc::new(DecentCluster::new(cfg)), nodes, spec, plan)
            }
            Proto::QStore => {
                let mut cfg = QStoreConfig {
                    nodes,
                    seed,
                    ..Default::default()
                };
                if self.detector {
                    // Oracle off: the heartbeat detector ejects a silent
                    // planner and drives the successor's fenced takeover.
                    cfg.detector = Some(DetectorConfig::default());
                }
                if self.durable {
                    // Replicas append+fsync one batch record per epoch to
                    // the simulated disk; crash-amnesia and corrupt-tail
                    // faults become applicable.
                    cfg.durability = Some(DurabilityConfig::default());
                }
                run_plan(Rc::new(QStoreCluster::new(cfg)), nodes, spec, plan)
            }
        }
    }

    /// A QR-family cluster in `mode`. `protect` arms the engine-side
    /// overload protections (admission control, deadline-aware abort,
    /// retry budget); the baselines and Q-Store have no engine knobs, so
    /// under overload they rely on the driver-side queue bound and
    /// deadline abandon alone.
    fn qr(&self, mode: NestingMode, seed: u64) -> Rc<Cluster> {
        let mut cfg = DtmConfig {
            nodes: self.nodes,
            mode,
            seed,
            ..Default::default()
        };
        if self.detector {
            // Oracle off: the cluster self-heals via heartbeats. A tight RPC
            // timeout keeps calls into not-yet-ejected dead nodes short
            // relative to the suspicion window, so retries/hedging matter.
            cfg.detector = Some(DetectorConfig::default());
            cfg.rpc_timeout = Some(SimDuration::from_millis(100));
        }
        if self.durable {
            // Replicas log to the simulated disk; crash-amnesia and
            // corrupt-tail faults become applicable.
            cfg.durability = Some(DurabilityConfig::default());
            cfg.rpc_timeout.get_or_insert(SimDuration::from_millis(100));
        }
        if self.protect {
            // Engine-side graceful degradation: per-node admission queues,
            // deadline-aware early abort, retry budgets, hedge suppression.
            // The tight RPC timeout makes retries (and thus the budget)
            // matter under surge.
            cfg.overload = Some(OverloadConfig::default());
            cfg.rpc_timeout.get_or_insert(SimDuration::from_millis(100));
        }
        Rc::new(Cluster::new(cfg))
    }

    /// Count one run of `proto` (`None` for a run outside the six
    /// families) and add its counters.
    fn count(&mut self, proto: Option<Proto>, m: &Metrics) {
        if let Some(p) = proto {
            self.coverage.add(p.label(), 1);
        }
        for (name, read) in self.counters {
            self.coverage.add(name, read(m));
        }
    }

    /// Any coverage shortfall, each prefixed with the suite's name.
    fn shortfalls(&self) -> Vec<String> {
        let short = self.coverage.shortfalls();
        short
            .into_iter()
            .map(|s| format!("{}: {s}", self.name))
            .collect()
    }

    /// Print the coverage reached and the verdict; returns the exit code.
    fn finish(self) -> i32 {
        let coverage = self.coverage.summary();
        if !coverage.is_empty() {
            println!("\ncoverage: {coverage}");
        }
        let short = self.shortfalls();
        for s in &short {
            eprintln!("{s}");
        }
        if self.failures > 0 {
            eprintln!(
                "\n{}: {} run(s) violated invariants",
                self.name, self.failures
            );
        }
        if self.failures > 0 || !short.is_empty() {
            return 1;
        }
        println!("\n{}: all invariants held", self.name);
        0
    }
}

/// A crafted smoke plan, written in the `--plan` text format.
fn plan(text: &str) -> FaultPlan {
    FaultPlan::parse(text).expect("smoke plans are well formed")
}

/// The fixed smoke suite `scripts/check.sh` runs: two seeds across all
/// six protocols with the short spec, plus one Fig. 10 crash schedule and
/// a crafted planner-failover plan for the batching family (crash node 0,
/// the initial planner — the successor must replan, and the batch
/// atomicity checker must stay clean).
fn smoke() -> i32 {
    let mut suite = Suite::smoke();
    println!("## chaos --smoke — 2 seeds x 6 protocols + fig10 + planner-failover\n");
    for seed in 1..=2u64 {
        for proto in ALL_PROTOS {
            let plan = generate(seed, 10, suite.spec.horizon, &proto.budget(5, false));
            suite.run(proto, seed, &plan);
        }
    }
    let fig10 = fig10_plan(3, suite.spec.horizon);
    suite.run(Proto::QrCn, 3, &fig10);
    let planner_failover = plan("@400000us crash 0\n@1200000us recover 0");
    suite.run(Proto::QStore, 3, &planner_failover);
    suite.finish()
}

/// The detector-mode smoke suite (`scripts/check.sh` stage 2): the oracle
/// is off, crashes and heals touch the simulator only, and the failure
/// detector must notice both — crafted plans exercise true suspicion,
/// false suspicion (an isolated-but-alive node) and gray slowness, and
/// the aggregated counters prove each mechanism actually fired.
fn detector_smoke() -> i32 {
    let mut suite = Suite::detector();
    let plans = [
        (
            "crash+heal",
            plan("@300000us crash 1\n@1100000us recover 1"),
        ),
        (
            "isolate-alive",
            plan("@300000us partition 2|0,1,3,4,5,6,7,8,9\n@1100000us heal"),
        ),
        (
            "slow-node",
            plan("@300000us slow 3 2000\n@1400000us restore 3"),
        ),
    ];
    println!("## chaos --smoke --detector — oracle off, detector in charge\n");
    for seed in 1..=2u64 {
        for (name, plan) in &plans {
            println!("plan: {name}");
            for proto in [Proto::QrCn, Proto::Qr] {
                suite.run(proto, seed, plan);
            }
        }
    }
    // Random full-vocabulary plans on top, so generated crash/partition
    // schedules also go through the detector path.
    for seed in 1..=2u64 {
        let plan = generate(seed, 10, suite.spec.horizon, &FaultBudget::full(5));
        suite.run(Proto::QrChk, seed, &plan);
    }
    // Q-Store keeps a reconfigurable planner view: a silently crashed
    // planner (node 0) must be suspected and ejected by the heartbeat
    // detector, the successor takes over behind a view-epoch fence, and
    // the old planner rejoins as an ordinary replica once it heals.
    let planner_crash = plan("@300000us crash 0\n@1100000us recover 0");
    for seed in 1..=2u64 {
        println!("plan: planner-crash (batching family)");
        suite.run(Proto::QStore, seed, &planner_crash);
    }
    suite.finish()
}

/// The durability smoke suite (`scripts/check.sh` stage 3): durable QR
/// replicas under amnesiac restarts and torn WAL tails. Crafted plans pin
/// the interesting sequences (a tail corruption followed immediately by an
/// amnesiac crash, and back-to-back restarts), generated durable-budget
/// plans add breadth, and every run goes through the full checker set —
/// including the durability checker, which proves no acknowledged write
/// was lost. The aggregated recovery counters then prove the log replay,
/// torn-tail detection and quorum repair each actually fired.
///
/// The Q-Store arms then put the batch WAL through the same grinder
/// across twenty seeds: each plan tears a replica's batch-log tail,
/// amnesia-crashes that replica *and* the planner, and the restarted
/// nodes must replay their fsynced batch prefix (dropping the torn batch
/// whole), census the quorum-acked epoch frontier and pull what they
/// lost — with the batch-atomicity and durability checkers watching.
fn amnesia_smoke() -> i32 {
    let mut suite = Suite::amnesia();
    let plans = [
        (
            "torn-restart",
            plan(
                "@400000us corrupt-tail 2
                 @400000us crash-amnesia 2
                 @1100000us recover 2",
            ),
        ),
        (
            "double-amnesia",
            plan(
                "@300000us crash-amnesia 1
                 @800000us recover 1
                 @1000000us corrupt-tail 4
                 @1000000us crash-amnesia 4
                 @1400000us recover 4",
            ),
        ),
    ];
    println!("## chaos --smoke --amnesia — durable replicas, amnesiac restarts\n");
    for seed in 1..=3u64 {
        for (name, plan) in &plans {
            println!("plan: {name}");
            for proto in [Proto::QrCn, Proto::Qr] {
                suite.run(proto, seed, plan);
            }
        }
    }
    // Random durable-budget plans on top, so generated amnesia schedules
    // (mixed with partitions, drops and slowdowns) also get coverage.
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, suite.spec.horizon, &FaultBudget::durable(5));
        suite.run(Proto::QrChk, seed, &plan);
    }
    // Q-Store: twenty seeds of torn batch tails + amnesiac restarts. The
    // victim replica rotates with the seed so the tear lands on different
    // batch boundaries, and the planner (node 0) is amnesia-crashed in
    // every plan so failover must adopt only the quorum-acked durable
    // prefix before the old planner rejoins from its own batch log.
    println!("\nbatch WAL (qstore): torn tails + planner amnesia across 20 seeds");
    for seed in 1..=20u64 {
        let victim = 1 + (seed % 9) as u32;
        let batch_tear = plan(&format!(
            "@400000us corrupt-tail {victim}
             @400000us crash-amnesia {victim}
             @700000us crash-amnesia 0
             @1000000us recover {victim}
             @1200000us recover 0"
        ));
        suite.run(Proto::QStore, seed, &batch_tear);
    }
    // And generated durable-budget plans for breadth on the batching
    // family too.
    for seed in 1..=3u64 {
        let plan = generate(seed, 10, suite.spec.horizon, &FaultBudget::durable(5));
        suite.run(Proto::QStore, seed, &plan);
    }
    suite.finish()
}

/// The open-loop traffic shape for overload runs: arrivals keep coming at
/// 150 tps whether or not earlier transactions finished, each with a
/// 300 ms deadline; with protection on, the driver sheds arrivals past a
/// 32-deep per-node admission queue and abandons work already past its
/// deadline instead of executing it.
fn overload_traffic() -> OpenLoopSpec {
    OpenLoopSpec {
        rate_tps: 150,
        deadline: SimDuration::from_millis(300),
        queue_bound: 32,
        protect: true,
        ..OpenLoopSpec::default()
    }
}

/// The overload smoke suite (`scripts/check.sh` stage 4): open-loop
/// traffic with generated surge/flash-crowd/gray plans across all six
/// protocol families and twenty seeds — the retry-storm and goodput
/// re-convergence (metastability) checkers are armed on every run. A
/// budget-pressure arm then proves the retry budget actually bounds token
/// draws under a slow node, and a checker-validation arm turns every
/// protection off and asserts the same surge drives the run metastable —
/// the checker has to be able to catch the failure mode it guards against.
fn overload_smoke() -> i32 {
    let ms = SimDuration::from_millis;
    let mut suite = Suite::overload();
    println!("## chaos --smoke --overload — open-loop traffic, surges + gray faults\n");
    // Twenty seeds across all six families under generated overload plans
    // (a surge, a flash crowd, a slow node and a latency spike, each
    // paired with its cure). The QR family runs with the engine-side
    // protections armed; the baselines and Q-Store have no engine knobs
    // and rely on the driver-side queue bound and deadline abandon alone.
    for seed in 1..=20u64 {
        for proto in ALL_PROTOS {
            let plan = generate(seed, 10, suite.spec.horizon, &FaultBudget::overload(4));
            suite.run(proto, seed, &plan);
        }
    }
    // Budget pressure: a cap-4 retry budget with no per-commit refill —
    // only a 100 ms drip — under a 20x slow node plus a surge. The engine
    // must stop retrying when the budget runs dry (the retry-storm
    // checker proves the bound holds), the exhaustion counter must fire,
    // and the drip must be enough for the run to work itself back to
    // health once the faults clear.
    println!("\nbudget pressure: cap-4 retry budget, drip-only refill, 20x slow node + surge");
    let slow_surge = plan(
        "@300000us slow 3 2000
         @500000us surge 400
         @1200000us calm
         @1400000us restore 3",
    );
    for seed in 1..=3u64 {
        let cl = Rc::new(Cluster::new(DtmConfig {
            nodes: 10,
            mode: NestingMode::Flat,
            seed,
            rpc_timeout: Some(ms(100)),
            overload: Some(OverloadConfig {
                retry_budget_cap: 4,
                retry_refill_per_commit: 0,
                retry_drip: ms(100),
                ..OverloadConfig::default()
            }),
            ..Default::default()
        }));
        let r = run_plan(cl, 10, &suite.spec, &slow_surge);
        println!("[qr-budget seed={seed} nodes=10] {}", r.summary_line());
        for v in &r.violations {
            println!("    ! {v}");
        }
        suite.failures += usize::from(!r.ok());
        suite.count(None, &r.metrics);
    }
    // Checker validation: the same surge with every protection off — no
    // admission control, no shedding, no deadline abandon — builds a
    // backlog the run never works off, so post-surge goodput stays near
    // zero. The metastability checker must flag it; if it cannot catch
    // the failure mode it guards against, the green runs above prove
    // nothing.
    let spec = ChaosSpec {
        overload: Some(OpenLoopSpec {
            protect: false,
            ..overload_traffic()
        }),
        ..ChaosSpec::smoke()
    };
    let unprotected = Suite::new("unprotected", spec, &[], &[]);
    let surge_only = plan("@600000us surge 600\n@1400000us calm");
    println!("\nchecker validation: unprotected surge must go metastable");
    for seed in 1..=3u64 {
        let r = unprotected.run_plan(Proto::Qr, seed, &surge_only);
        let meta = r
            .violations
            .iter()
            .any(|v| matches!(v, ChaosViolation::Metastable { .. }));
        println!(
            "[qr-unprotected seed={seed} nodes=10] {} metastable={}",
            r.summary_line(),
            if meta { "yes (expected)" } else { "NO" },
        );
        if !meta {
            eprintln!("overload smoke: metastability checker missed an unprotected surge");
            suite.failures += 1;
        }
    }
    suite.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics in which every counter a suite sums has fired once.
    fn all_fired() -> Metrics {
        let mut m = Metrics::default();
        m.heartbeats_sent = 1;
        m.suspicions = 1;
        m.false_suspicions = 1;
        m.rpc_retries = 1;
        m.hedged_wins = 1;
        m.log_replays = 1;
        m.torn_tails = 1;
        m.repair_rounds = 1;
        m.repaired_objects = 1;
        m.admission_shed = 1;
        m.deadline_aborts = 1;
        m.retry_budget_exhausted = 1;
        m.client_retries = 1;
        m
    }

    /// `suite`'s shortfalls after each `(proto, n)`'s `n` runs, every
    /// counter firing on each run.
    fn after(mut suite: Suite, runs: &[(Proto, u64)]) -> Vec<String> {
        for &(proto, n) in runs {
            for _ in 0..n {
                suite.count(Some(proto), &all_fired());
            }
        }
        suite.shortfalls()
    }

    #[test]
    fn each_smoke_fails_below_its_run_minimum() {
        let smoke = |runs: &[(Proto, u64)]| after(Suite::smoke(), runs);
        assert_eq!(
            smoke(&[(Proto::Qr, 12)]),
            ["chaos smoke: qstore reached 0, needs at least 1"]
        );
        assert!(smoke(&[(Proto::QStore, 1)]).is_empty());

        assert!(
            Suite::amnesia().durable,
            "every amnesia smoke run is durable"
        );
        let amnesia = |runs: &[(Proto, u64)]| after(Suite::amnesia(), runs);
        assert_eq!(
            amnesia(&[(Proto::QStore, 19)]),
            ["chaos amnesia smoke: qstore reached 19, needs at least 20"]
        );
        assert!(amnesia(&[(Proto::QStore, 20)]).is_empty());

        let mut families = ALL_PROTOS.map(|p| (p, 20));
        assert!(after(Suite::overload(), &families).is_empty());
        families[4] = (Proto::Decent, 19);
        assert_eq!(
            after(Suite::overload(), &families),
            ["chaos overload smoke: decent reached 19, needs at least 20"]
        );
    }

    #[test]
    fn the_repro_hint_names_every_mode_flag() {
        let all_modes = Suite {
            nodes: 7,
            detector: true,
            durable: true,
            protect: true,
            ..Suite::new("chaos", ChaosSpec::default(), &[], &[])
        };
        assert_eq!(
            all_modes.repro_args(Proto::QStore, 3),
            "--proto qstore --seed 3 --nodes 7 --detector --amnesia --overload"
        );
        let plain = Suite::new("chaos", ChaosSpec::default(), &[], &[]);
        assert_eq!(
            plain.repro_args(Proto::Qr, 1),
            "--proto qr --seed 1 --nodes 10"
        );
        assert_eq!(
            Suite::detector().repro_args(Proto::QrCn, 2),
            "--proto qr-cn --seed 2 --nodes 10 --horizon-ms 2000 --detector"
        );
    }

    #[test]
    fn a_counter_that_never_fired_fails_its_suite() {
        let mut suite = Suite::detector();
        let mut m = all_fired();
        m.false_suspicions = 0;
        suite.count(None, &m);
        assert_eq!(
            suite.shortfalls(),
            ["chaos detector smoke: false_suspicions reached 0, needs at least 1"]
        );
    }
}
