//! Experiment driver: run a benchmark on a cluster configuration and
//! measure what the paper measures — throughput (committed root
//! transactions per second), abort counts, and messages exchanged.
//!
//! A run has three phases, all in virtual time:
//! 1. **Setup** — populate the data structure (single writer, no
//!    contention).
//! 2. **Warm-up** — clients run closed-loop on every (alive) node; counters
//!    are then zeroed.
//! 3. **Measurement** — a fixed virtual-time window; throughput is
//!    `commits / window`.
//!
//! Everything is parameterized the way the paper's sweeps are: read
//! percentage (Fig. 5), number of nested calls per root transaction
//! (Fig. 6), and number of objects (Fig. 7); plus a failure count for the
//! Fig. 10 experiment.
//!
//! Fig. 10 failures go through the shared crash verb. When
//! [`DtmConfig::detector`] is set, the driver is no longer a failure
//! oracle: the verb only kills nodes in the simulator, and the
//! heartbeat-driven failure detector performs the corresponding view
//! changes (with their real detection latency and message cost) on its
//! own. Mid-run faults are the chaos crate's `FaultPlan`.

use std::rc::Rc;

use qrdtm_core::membership::{crash, detection_bound};
use qrdtm_core::{
    spawn_detector, Abort, Cluster, DtmConfig, DtmStats, Membership, ObjVal, ObjectId, Tx,
};
use qrdtm_sim::{NodeId, SimDuration};

use crate::bank::{self, BankLayout};
use crate::bst::{self, BstLayout};
use crate::hashmap::{self, HashmapLayout};
use crate::rbtree::{self, RBTreeLayout};
use crate::skiplist::{self, SkiplistLayout};
use crate::vacation::{self, VacationLayout};

/// The paper's benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Benchmark {
    /// Monetary transfers/audits over account objects.
    Bank,
    /// Fixed-bucket hash map under churn.
    Hashmap,
    /// Skip list (the paper's SList).
    SList,
    /// Red-black tree.
    RBTree,
    /// Plain binary search tree (Fig. 10).
    Bst,
    /// STAMP Vacation reservations.
    Vacation,
}

impl Benchmark {
    /// The five benchmarks of Figs. 5-7 and Table 8, in the paper's order.
    pub const FIGURE_SET: [Benchmark; 5] = [
        Benchmark::Bank,
        Benchmark::Hashmap,
        Benchmark::SList,
        Benchmark::RBTree,
        Benchmark::Vacation,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bank => "Bank",
            Benchmark::Hashmap => "Hashmap",
            Benchmark::SList => "SList",
            Benchmark::RBTree => "RBTree",
            Benchmark::Bst => "BST",
            Benchmark::Vacation => "Vacation",
        }
    }
}

/// Workload shape parameters (the three sweep axes of Figs. 5-7).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadParams {
    /// Percentage of read-only operations (0-100).
    pub read_pct: u32,
    /// Closed-nested calls per root transaction (transaction length).
    pub calls: usize,
    /// Number of objects (accounts / key space / rows), the contention
    /// knob.
    pub objects: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            read_pct: 50,
            calls: 3,
            objects: 32,
        }
    }
}

/// One experiment run specification.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Which benchmark to drive.
    pub bench: Benchmark,
    /// Workload shape.
    pub params: WorkloadParams,
    /// Warm-up window (excluded from measurement).
    pub warmup: SimDuration,
    /// Measurement window.
    pub duration: SimDuration,
    /// Closed-loop client tasks per alive node.
    pub clients_per_node: usize,
    /// Nodes to fail before the run, Fig. 10 style: each failure removes
    /// the first alive member of the current read quorum, growing it.
    pub failures: usize,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            bench: Benchmark::Bank,
            params: WorkloadParams::default(),
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(20),
            clients_per_node: 1,
            failures: 0,
        }
    }
}

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Committed root transactions per virtual second.
    pub throughput: f64,
    /// Committed root transactions in the window.
    pub commits: u64,
    /// Transaction-level counters.
    pub stats: DtmStats,
    /// Total messages sent during the window.
    pub messages: u64,
    /// Measurement window.
    pub window: SimDuration,
}

/// Execute one experiment run. Deterministic for a given `(cfg, spec)`.
pub fn run(cfg: DtmConfig, spec: &RunSpec) -> RunResult {
    let cluster = Rc::new(Cluster::new(cfg));
    let sim = cluster.sim().clone();
    let nodes = sim.num_nodes();

    // --- Phase 1: setup -------------------------------------------------
    setup_bench(&cluster, spec);
    sim.run(); // drain the population phase

    // Spawned only after the setup drain: heartbeats never go idle, so
    // `sim.run()` above would otherwise not terminate.
    let detector = cluster.config().detector;
    let _handle = detector.map(|_| spawn_detector(&cluster));
    let bound = detection_bound(&*cluster).unwrap_or_default();

    // Fig. 10-style failures: shrink the alive set, growing the read quorum.
    for _ in 0..spec.failures {
        let victim = cluster
            .read_quorum_victim()
            .expect("read quorum has an alive member");
        assert!(
            crash(&*cluster, victim),
            "quorum survives the configured failures"
        );
        // With a detector, run (still client-free) until it has ejected
        // the victim, so clients start against the same shrunken view the
        // oracle produces at once.
        if let Some(d) = detector {
            let mut waited = SimDuration::ZERO;
            while cluster.view_alive(victim) && waited < bound {
                sim.run_for(d.interval);
                waited += d.interval;
            }
        }
        assert!(
            !cluster.view_alive(victim),
            "detector ejects a pre-run victim within its bound"
        );
    }

    // --- Phase 2+3: drive clients ---------------------------------------
    for node in 0..nodes as u32 {
        let node = NodeId(node);
        if !sim.is_alive(node) {
            continue;
        }
        for _ in 0..spec.clients_per_node {
            spawn_client(&cluster, node, spec);
        }
    }
    sim.run_for(spec.warmup);
    cluster.reset_stats();
    sim.reset_metrics();
    sim.run_for(spec.duration);

    let stats = cluster.stats();
    RunResult {
        throughput: stats.commits as f64 / spec.duration.as_secs_f64(),
        commits: stats.commits,
        messages: sim.metrics().sent_total,
        stats,
        window: spec.duration,
    }
}

/// Layout bases keep every benchmark's objects in disjoint id ranges even
/// if several coexist in one cluster.
const BASE: u64 = 0;

fn bank_layout(p: &WorkloadParams) -> BankLayout {
    BankLayout {
        base: BASE,
        accounts: p.objects.max(2),
    }
}

const MAP: HashmapLayout = HashmapLayout {
    base: BASE,
    buckets: 16,
};

fn vacation_layout(p: &WorkloadParams) -> VacationLayout {
    VacationLayout {
        base: BASE,
        rows: p.objects.max(4),
        customers: p.objects.max(4),
        // Large capacity: contention comes from row conflicts, not
        // exhaustion, within a measurement window.
        capacity: 1 << 40,
    }
}

/// The four key-set micro-benchmarks with their layouts: one client loop
/// drives them all through [`KeySet::apply`].
#[derive(Clone, Copy, Debug)]
enum KeySet {
    Hashmap(HashmapLayout),
    SList(SkiplistLayout),
    RBTree(RBTreeLayout),
    Bst(BstLayout),
}

impl KeySet {
    /// The key set `bench` runs on, or `None` for Bank and Vacation.
    fn of(bench: Benchmark, p: &WorkloadParams) -> Option<KeySet> {
        let key_space = p.objects.max(4) as i64;
        Some(match bench {
            Benchmark::Hashmap => KeySet::Hashmap(MAP),
            Benchmark::SList => KeySet::SList(SkiplistLayout::new(BASE, key_space)),
            Benchmark::RBTree => KeySet::RBTree(RBTreeLayout {
                base: BASE,
                key_space,
            }),
            Benchmark::Bst => KeySet::Bst(BstLayout {
                base: BASE,
                key_space,
            }),
            Benchmark::Bank | Benchmark::Vacation => return None,
        })
    }

    /// Keys the clients draw from: `0..key_space`.
    fn key_space(self, p: &WorkloadParams) -> u64 {
        match self {
            KeySet::Hashmap(_) => p.objects.max(2),
            KeySet::SList(sl) => sl.key_space as u64,
            KeySet::RBTree(t) => t.key_space as u64,
            KeySet::Bst(t) => t.key_space as u64,
        }
    }

    /// The structure's preloaded objects.
    fn setup(self) -> Vec<(ObjectId, ObjVal)> {
        match self {
            KeySet::Hashmap(map) => map.setup(),
            KeySet::SList(sl) => sl.setup(),
            KeySet::RBTree(t) => t.setup(),
            KeySet::Bst(t) => t.setup(),
        }
    }

    /// One contains/insert/remove of `key` (inserts store the key as its
    /// own value); `Ok(true)` when the key was present/added/removed.
    async fn apply(self, tx: &Tx, key: i64, op: Op) -> Result<bool, Abort> {
        match (self, op) {
            (KeySet::Hashmap(map), Op::Read) => hashmap::get(tx, &map, key).await,
            (KeySet::Hashmap(map), Op::Insert) => hashmap::put(tx, &map, key).await,
            (KeySet::Hashmap(map), Op::Remove) => hashmap::remove(tx, &map, key).await,
            (KeySet::SList(sl), Op::Read) => skiplist::contains(tx, &sl, key).await,
            (KeySet::SList(sl), Op::Insert) => skiplist::insert(tx, &sl, key, key).await,
            (KeySet::SList(sl), Op::Remove) => skiplist::remove(tx, &sl, key).await,
            (KeySet::RBTree(t), Op::Read) => rbtree::contains(tx, &t, key).await,
            (KeySet::RBTree(t), Op::Insert) => rbtree::insert(tx, &t, key, key).await,
            (KeySet::RBTree(t), Op::Remove) => rbtree::remove(tx, &t, key).await,
            (KeySet::Bst(t), Op::Read) => bst::contains(tx, &t, key).await,
            (KeySet::Bst(t), Op::Insert) => bst::insert(tx, &t, key, key).await,
            (KeySet::Bst(t), Op::Remove) => bst::remove(tx, &t, key).await,
        }
    }
}

fn setup_bench(cluster: &Cluster, spec: &RunSpec) {
    let p = spec.params;
    match spec.bench {
        Benchmark::Bank => cluster.preload_all(bank_layout(&p).setup(1_000)),
        Benchmark::Hashmap | Benchmark::SList | Benchmark::RBTree | Benchmark::Bst => {
            let set = KeySet::of(spec.bench, &p).expect("a key-set benchmark");
            cluster.preload_all(set.setup());
            let n = set.key_space(&p) as i64;
            // Every other key, in order; the unbalanced BST takes every key
            // in a shuffled-ish order instead, to stay shallow.
            let keys: Vec<i64> = match set {
                KeySet::Bst(_) => (0..n)
                    .map(|step| (hashmap::mix(step as u64) % n as u64) as i64)
                    .collect(),
                _ => (0..n).step_by(2).collect(),
            };
            if let KeySet::Hashmap(map) = set {
                // Bucket contents are a pure function of the keys, so the
                // map is pre-populated directly.
                let mut buckets: Vec<Vec<i64>> = vec![Vec::new(); map.buckets as usize];
                for k in keys {
                    buckets[(map.bucket(k).0 - map.base) as usize].push(k);
                }
                for (b, mut keys) in buckets.into_iter().enumerate() {
                    keys.sort_unstable();
                    cluster.preload(ObjectId(map.base + b as u64), ObjVal::IntList(keys));
                }
                return;
            }
            let client = cluster.client(NodeId(0));
            cluster.sim().spawn(async move {
                for k in keys {
                    client
                        .run(|tx| async move { set.apply(&tx, k, Op::Insert).await })
                        .await;
                }
            });
        }
        Benchmark::Vacation => cluster.preload_all(vacation_layout(&p).setup()),
    }
}

fn spawn_client(cluster: &Cluster, node: NodeId, spec: &RunSpec) {
    let sim = cluster.sim().clone();
    let client = cluster.client(node);
    let spec = *spec;
    let p = spec.params;
    match spec.bench {
        Benchmark::Bank => {
            let bank = bank_layout(&p);
            sim.spawn({
                let sim = sim.clone();
                async move {
                    loop {
                        let is_read = sim.rand_below(100) < u64::from(p.read_pct);
                        let ops: Vec<(u64, u64)> = (0..spec.calls())
                            .map(|_| {
                                let a = sim.rand_below(bank.accounts);
                                let mut b = sim.rand_below(bank.accounts);
                                if b == a {
                                    b = (b + 1) % bank.accounts;
                                }
                                (a, b)
                            })
                            .collect();
                        let ops = Rc::new(ops);
                        client
                            .run(|tx| {
                                let ops = Rc::clone(&ops);
                                async move {
                                    for &(a, b) in ops.iter() {
                                        if is_read {
                                            tx.closed(move |tx2| async move {
                                                bank::audit(&tx2, &bank, a, b).await
                                            })
                                            .await?;
                                        } else {
                                            tx.closed(move |tx2| async move {
                                                bank::transfer(&tx2, &bank, a, b, 5).await
                                            })
                                            .await?;
                                        }
                                    }
                                    Ok(())
                                }
                            })
                            .await;
                    }
                }
            });
        }
        Benchmark::Hashmap | Benchmark::SList | Benchmark::RBTree | Benchmark::Bst => {
            let set = KeySet::of(spec.bench, &p).expect("a key-set benchmark");
            let keyspace = set.key_space(&p);
            sim.spawn({
                let sim = sim.clone();
                async move {
                    loop {
                        let plan = Rc::new(op_plan(&sim, spec.calls(), p.read_pct, keyspace));
                        client
                            .run(|tx| {
                                let plan = Rc::clone(&plan);
                                async move {
                                    for &(key, op) in plan.iter() {
                                        tx.closed(move |tx2| async move {
                                            set.apply(&tx2, key, op).await
                                        })
                                        .await?;
                                    }
                                    Ok(())
                                }
                            })
                            .await;
                    }
                }
            });
        }
        Benchmark::Vacation => {
            let v = vacation_layout(&p);
            sim.spawn({
                let sim = sim.clone();
                async move {
                    loop {
                        let is_read = sim.rand_below(100) < u64::from(p.read_pct);
                        let customer = sim.rand_below(v.customers);
                        let rounds: Vec<[u64; 3]> = (0..spec.calls())
                            .map(|_| {
                                [
                                    sim.rand_below(v.rows),
                                    sim.rand_below(v.rows),
                                    sim.rand_below(v.rows),
                                ]
                            })
                            .collect();
                        let rounds = Rc::new(rounds);
                        client
                            .run(|tx| {
                                let rounds = Rc::clone(&rounds);
                                async move {
                                    for &picks in rounds.iter() {
                                        if is_read {
                                            vacation::query(&tx, &v, picks).await?;
                                        } else {
                                            vacation::make_reservation(&tx, &v, customer, picks)
                                                .await?;
                                        }
                                    }
                                    Ok(())
                                }
                            })
                            .await;
                    }
                }
            });
        }
    }
}

impl RunSpec {
    fn calls(&self) -> usize {
        self.params.calls.max(1)
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read,
    Insert,
    Remove,
}

/// Draw a root transaction's operation plan: `calls` (key, op) pairs.
fn op_plan(
    sim: &qrdtm_sim::Sim<qrdtm_core::Msg>,
    calls: usize,
    read_pct: u32,
    keyspace: u64,
) -> Vec<(i64, Op)> {
    (0..calls)
        .map(|_| {
            let key = sim.rand_below(keyspace) as i64;
            let op = if sim.rand_below(100) < u64::from(read_pct) {
                Op::Read
            } else if sim.rand_below(2) == 0 {
                Op::Insert
            } else {
                Op::Remove
            };
            (key, op)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_core::{LatencySpec, NestingMode};

    fn quick_spec(bench: Benchmark) -> RunSpec {
        RunSpec {
            bench,
            params: WorkloadParams {
                read_pct: 50,
                calls: 2,
                objects: 16,
            },
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            clients_per_node: 1,
            failures: 0,
        }
    }

    fn quick_cfg(mode: NestingMode) -> DtmConfig {
        DtmConfig {
            nodes: 13,
            mode,
            seed: 11,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            ..Default::default()
        }
    }

    #[test]
    fn every_benchmark_commits_under_every_mode() {
        for bench in [
            Benchmark::Bank,
            Benchmark::Hashmap,
            Benchmark::SList,
            Benchmark::RBTree,
            Benchmark::Bst,
            Benchmark::Vacation,
        ] {
            for mode in NestingMode::ALL {
                let r = run(quick_cfg(mode), &quick_spec(bench));
                assert!(
                    r.commits > 0,
                    "{} under {mode} committed nothing: {:?}",
                    bench.name(),
                    r.stats
                );
                assert!(r.throughput > 0.0);
                assert!(r.messages > 0);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(
            quick_cfg(NestingMode::Closed),
            &quick_spec(Benchmark::Hashmap),
        );
        let b = run(
            quick_cfg(NestingMode::Closed),
            &quick_spec(Benchmark::Hashmap),
        );
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn detector_replaces_the_failure_oracle_in_fig10_runs() {
        let mut spec = quick_spec(Benchmark::Bank);
        spec.failures = 1;
        let mk = || {
            let mut cfg = quick_cfg(NestingMode::Closed);
            cfg.nodes = 28;
            cfg.read_level = 0;
            cfg.detector = Some(qrdtm_core::DetectorConfig::default());
            cfg.rpc_timeout = Some(SimDuration::from_millis(100));
            cfg
        };
        let r = run(mk(), &spec);
        assert!(
            r.commits > 0,
            "cluster commits after a detector-ejected failure: {:?}",
            r.stats
        );
        // Detector runs stay deterministic per seed.
        let r2 = run(mk(), &spec);
        assert_eq!(r.commits, r2.commits);
        assert_eq!(r.messages, r2.messages);
    }

    #[test]
    fn failures_grow_the_read_quorum_and_keep_committing() {
        let mut spec = quick_spec(Benchmark::Bst);
        spec.failures = 3;
        let mut cfg = quick_cfg(NestingMode::Closed);
        cfg.nodes = 28;
        cfg.read_level = 0;
        let r = run(cfg, &spec);
        assert!(r.commits > 0, "cluster survives 3 failures: {:?}", r.stats);
    }
}
