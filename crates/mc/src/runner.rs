//! One schedule = one deterministic simulation run under a pick policy.
//!
//! The runner builds a small contended cluster (the exploration [`Scope`]),
//! installs a recording [`qrdtm_sim::Scheduler`] that delegates tie-breaks
//! to a [`ChoicePolicy`](crate::ChoicePolicy), drives the workload to
//! completion, and then runs the full invariant battery: history
//! serializability, balance conservation, durability no-regress, and the
//! structural nesting/checkpoint assertions from
//! [`qrdtm_core::check_abort_targets`] /
//! [`qrdtm_core::check_checkpoint_restores`].

use std::cell::RefCell;
use std::rc::Rc;

use qrdtm_chaos::{check_balances, check_durability, ChaosTarget};
use qrdtm_core::membership::crash_amnesia;
use qrdtm_core::{
    check_abort_targets, check_checkpoint_restores, Cluster, DtmConfig, InjectedBug, LatencySpec,
    NestingMode, ObjVal, ObjectId,
};
use qrdtm_qstore::{QStoreBug, QStoreCluster, QStoreConfig};
use qrdtm_sim::{EventInfo, NodeId, Scheduler, Sim, SimDuration, SimMessage, SimTime};
use qrdtm_workloads::protocol_bank::transfer;

use crate::strategies::ChoicePolicy;

/// Balance preloaded into every account object at the start of a run.
pub const INITIAL_BALANCE: i64 = 1000;

/// Virtual-time horizon for one schedule run. The workload finishes in a
/// few hundred simulated milliseconds when healthy; a task still live at
/// the horizon is reported as a stuck-run violation.
const HORIZON: SimDuration = SimDuration::from_secs(300);

/// Protocol family a scope explores: a QR nesting variant or the Q-Store
/// speculative-batching protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McProto {
    /// The quorum-replication family (QR / QR-CN / QR-CHK by nesting mode).
    Qr(NestingMode),
    /// Q-Store: planner-ordered epochs, speculative executors, batch-atomic
    /// group commit.
    QStore,
}

/// A deliberately broken protocol variant, used to validate that the
/// checkers can actually catch protocol bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McBug {
    /// A QR-family bug (`skip-vote-check` / `skip-epoch-fence`).
    Qr(InjectedBug),
    /// A Q-Store bug (`skip-tag-check`).
    QStore(QStoreBug),
}

/// The bounded exploration scope: protocol, cluster size, and workload
/// shape shared by every schedule the checker runs. A recorded schedule is
/// only replayable under the exact scope it was recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scope {
    /// Protocol variant under test.
    pub proto: McProto,
    /// Replica count.
    pub nodes: usize,
    /// Account objects (ids `0..objects`, each preloaded with
    /// [`INITIAL_BALANCE`]).
    pub objects: u64,
    /// Concurrent transfer transactions (client `i` runs on node
    /// `i % nodes`, debiting object `i % objects`).
    pub txns: usize,
    /// Cluster RNG seed (retry backoff jitter); part of the scope because
    /// choices only reproduce a run under the same seed.
    pub seed: u64,
    /// Deliberately broken protocol variant, used to validate that the
    /// checkers can actually catch protocol bugs.
    pub injected_bug: Option<McBug>,
    /// Event-queue implementation the schedules run on. Part of the scope
    /// for honesty's sake, but heap and wheel produce identical tie groups
    /// and choice vectors (regression-tested in `tests/`), so traces
    /// recorded on one replay on the other.
    pub queue: qrdtm_sim::EventQueueKind,
}

impl Scope {
    /// The issue's smoke scope: 3 nodes, 2 objects, 2 transactions.
    pub fn smoke(proto: McProto) -> Self {
        Scope {
            proto,
            nodes: 3,
            objects: 2,
            txns: 2,
            seed: 1,
            injected_bug: None,
            queue: qrdtm_sim::EventQueueKind::default(),
        }
    }
}

/// Everything one schedule run produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The choice taken at each scheduler decision point (a decision point
    /// is a same-instant tie group of two or more events).
    pub choices: Vec<usize>,
    /// The tie group offered at each decision point (parallel to
    /// `choices`); used by the DFS explorer for commutativity pruning.
    pub groups: Vec<Vec<EventInfo>>,
    /// Root transactions committed.
    pub commits: u64,
    /// Root aborts plus partial (closed-nested / checkpoint) aborts.
    pub aborts: u64,
    /// Invariant violations, human-readable. Empty means the run passed.
    pub violations: Vec<String>,
    /// Order-sensitive digest of the run's observable outcome (counters,
    /// balances, acknowledged versions) — equal fingerprints for equal
    /// choices is the replay-determinism contract.
    pub fingerprint: u64,
}

/// Minimal FNV-1a, used for outcome fingerprints and schedule dedup keys
/// (stable across runs, unlike `DefaultHasher`).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-run recording shared between the scheduler and the runner.
#[derive(Default)]
struct Recording {
    choices: Vec<usize>,
    groups: Vec<Vec<EventInfo>>,
}

/// Adapts a [`ChoicePolicy`] to the sim's [`Scheduler`] hook, recording
/// every decision point (the offered group and the clamped pick) so the
/// run is replayable and the explorer can backtrack.
struct RecordingScheduler {
    policy: Box<dyn ChoicePolicy>,
    rec: Rc<RefCell<Recording>>,
}

impl Scheduler for RecordingScheduler {
    fn pick(&mut self, now: SimTime, ready: &[EventInfo]) -> usize {
        let pick = self.policy.choose(now, ready).min(ready.len() - 1);
        let mut rec = self.rec.borrow_mut();
        rec.choices.push(pick);
        rec.groups.push(ready.to_vec());
        pick
    }
}

/// Install a recording scheduler on `sim`; the returned recording fills in
/// as the run executes.
fn attach_recorder<M: SimMessage>(
    sim: &Sim<M>,
    policy: Box<dyn ChoicePolicy>,
) -> Rc<RefCell<Recording>> {
    let rec = Rc::new(RefCell::new(Recording::default()));
    sim.set_scheduler(Box::new(RecordingScheduler {
        policy,
        rec: Rc::clone(&rec),
    }));
    rec
}

/// Spawn one transfer client. Under QR-CN the debit and credit run in
/// separate closed-nested scopes so conflicts produce real partial aborts;
/// the other modes run the accesses flat (QR-CHK still checkpoints them,
/// `chk_threshold` is 1 in this scope).
fn spawn_transfer(cluster: &Rc<Cluster>, node: NodeId, from: ObjectId, to: ObjectId, amount: i64) {
    let nested = cluster.config().mode == NestingMode::Closed;
    let client = cluster.client(node);
    cluster.sim().spawn(async move {
        client
            .run(|tx| async move {
                if nested {
                    tx.closed(|tx| async move {
                        let v = tx.read(from).await?.expect_int();
                        tx.write(from, ObjVal::Int(v - amount)).await
                    })
                    .await?;
                    tx.closed(|tx| async move {
                        let v = tx.read(to).await?.expect_int();
                        tx.write(to, ObjVal::Int(v + amount)).await
                    })
                    .await?;
                } else {
                    let a = tx.read(from).await?.expect_int();
                    let b = tx.read(to).await?.expect_int();
                    tx.write(from, ObjVal::Int(a - amount)).await?;
                    tx.write(to, ObjVal::Int(b + amount)).await?;
                }
                Ok(())
            })
            .await;
    });
}

/// Run one schedule of the scope's workload under `policy` and check every
/// invariant. Deterministic: the same scope and the same effective choices
/// always produce the same [`RunOutcome`].
pub fn run_schedule(scope: &Scope, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    match scope.proto {
        McProto::Qr(mode) => run_qr_schedule(scope, mode, policy),
        McProto::QStore => run_qstore_schedule(scope, policy),
    }
}

/// What the shared post-run battery found, plus the committed state the
/// fingerprints hash.
struct Battery {
    violations: Vec<String>,
    balances: Vec<(u64, Option<i64>)>,
    acked: Vec<(u64, u64)>,
}

impl Battery {
    /// Fold the final balances and acked versions into a fingerprint.
    fn hash_state(&self, fp: &mut Fnv) {
        for (o, b) in &self.balances {
            fp.write(*o);
            fp.write(b.map_or(u64::MAX, |b| b as u64));
        }
        for (o, v) in &self.acked {
            fp.write(*o);
            fp.write(*v);
        }
    }
}

/// The checks every arm runs after its schedule, in report order: stuck
/// tasks, history serializability, balance conservation, batch atomicity
/// (empty for per-transaction protocols) and durability no-regress — every
/// write version acked to a client must still be committed state after
/// any crash and takeover.
fn battery<T: ChaosTarget>(scope: &Scope, target: &T) -> Battery {
    let mut violations: Vec<String> = Vec::new();
    let stuck = target.sim().live_tasks();
    if stuck > 0 {
        violations.push(format!("stuck: {stuck} task(s) still live at the horizon"));
    }
    violations.extend(target.history_violations());
    let balances: Vec<(u64, Option<i64>)> = (0..scope.objects)
        .map(|o| (o, target.committed_int(ObjectId(o))))
        .collect();
    let expected_total = INITIAL_BALANCE * scope.objects as i64;
    violations.extend(
        check_balances(&balances, expected_total)
            .iter()
            .map(ToString::to_string),
    );
    violations.extend(
        target
            .batch_atomicity_violations()
            .into_iter()
            .map(|v| format!("batch atomicity broken: {v}")),
    );
    let acked = target.acked_write_versions();
    violations.extend(
        check_durability(&acked, |oid| target.committed_version(ObjectId(oid)))
            .iter()
            .map(ToString::to_string),
    );
    Battery {
        violations,
        balances,
        acked,
    }
}

/// QR-family schedule: the shared battery plus the structural
/// nesting/checkpoint assertions.
fn run_qr_schedule(scope: &Scope, mode: NestingMode, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    let cfg = DtmConfig {
        nodes: scope.nodes,
        mode,
        seed: scope.seed,
        // Constant latency maximizes same-instant ties — every fan-out's
        // arrivals land together, so the scheduler actually gets choices.
        latency: LatencySpec::Const(SimDuration::from_millis(1)),
        backoff_base: SimDuration::from_millis(1),
        backoff_max: SimDuration::from_millis(8),
        // Checkpoint on every data-set growth step so QR-CHK runs exercise
        // the checkpoint/restore assertions even at this tiny scale.
        chk_threshold: 1,
        injected_bug: match scope.injected_bug {
            Some(McBug::Qr(b)) => Some(b),
            _ => None,
        },
        queue: scope.queue,
        ..DtmConfig::default()
    };
    let cluster = Rc::new(Cluster::new(cfg));
    for o in 0..scope.objects {
        cluster.preload(ObjectId(o), ObjVal::Int(INITIAL_BALANCE));
    }
    cluster.begin_history();
    let sim = cluster.sim().clone();
    sim.record_engine_events(true);

    let rec = attach_recorder(&sim, policy);

    for i in 0..scope.txns {
        let from = ObjectId(i as u64 % scope.objects);
        let to = ObjectId((i as u64 + 1) % scope.objects);
        let node = NodeId((i % scope.nodes) as u32);
        spawn_transfer(&cluster, node, from, to, 1 + i as i64);
    }
    sim.run_until(SimTime::ZERO + HORIZON);
    sim.clear_scheduler();

    let mut checked = battery(scope, &*cluster);
    let stats = cluster.stats();
    let metrics = sim.metrics();
    checked.violations.extend(
        check_abort_targets(&metrics.engine_event_log)
            .iter()
            .map(ToString::to_string),
    );
    checked.violations.extend(
        check_checkpoint_restores(&metrics.engine_event_log)
            .iter()
            .map(ToString::to_string),
    );

    let mut fp = Fnv::new();
    fp.write(stats.commits);
    fp.write(stats.root_aborts);
    fp.write(stats.ct_aborts + stats.chk_rollbacks);
    fp.write(metrics.sent_total);
    fp.write(metrics.events);
    checked.hash_state(&mut fp);

    let rec = rec.borrow();
    RunOutcome {
        choices: rec.choices.clone(),
        groups: rec.groups.clone(),
        commits: stats.commits,
        aborts: stats.root_aborts + stats.ct_aborts + stats.chk_rollbacks,
        violations: checked.violations,
        fingerprint: fp.finish(),
    }
}

/// Q-Store schedule: same workload and the shared battery, whose batch
/// atomicity check bites here (no commit may observe state from an
/// unacknowledged or later epoch). The QR engine-event assertions do not
/// apply; tight timeouts and constant latency keep every fan-out a real
/// tie group for the scheduler.
fn run_qstore_schedule(scope: &Scope, policy: Box<dyn ChoicePolicy>) -> RunOutcome {
    let cfg = QStoreConfig {
        nodes: scope.nodes,
        seed: scope.seed,
        // Constant latency maximizes same-instant ties, exactly as in the
        // QR scope.
        latency: LatencySpec::Const(SimDuration::from_millis(1)),
        service_time: SimDuration::from_micros(50),
        // A small batch plus a short epoch timeout puts batch boundaries
        // inside the contended window, so seals race with reads.
        batch_size: 4,
        epoch_timeout: SimDuration::from_millis(2),
        poll_initial: SimDuration::from_millis(2),
        poll_interval: SimDuration::from_millis(1),
        rpc_timeout: SimDuration::from_millis(30),
        backoff: SimDuration::from_millis(1),
        wal_cost: SimDuration::from_micros(100),
        transfer_cost: SimDuration::from_millis(1),
        // Real per-replica batch WALs, so the planner-crash step below is
        // an honest amnesiac restart and the durability checker bites.
        durability: Some(qrdtm_core::DurabilityConfig::default()),
        queue: scope.queue,
        detector: None,
        injected_bug: match scope.injected_bug {
            Some(McBug::QStore(b)) => Some(b),
            _ => None,
        },
    };
    let cluster = Rc::new(QStoreCluster::new(cfg));
    for o in 0..scope.objects {
        cluster.preload(ObjectId(o), ObjVal::Int(INITIAL_BALANCE));
    }
    cluster.begin_history();
    let sim = cluster.sim().clone();

    let rec = attach_recorder(&sim, policy);

    for i in 0..scope.txns {
        let from = ObjectId(i as u64 % scope.objects);
        let to = ObjectId((i as u64 + 1) % scope.objects);
        let node = NodeId((i % scope.nodes) as u32);
        // One flat read-modify-write of both accounts through the
        // `DtmProtocol` surface, retrying on requeue.
        let c = Rc::clone(&cluster);
        sim.spawn(async move { transfer(&*c, node, from, to, 1 + i as i64).await });
    }
    // The ack-before-fsync bug is only observable through a crash: the
    // buggy planner reports an epoch committed the moment it is sealed, so
    // killing it with amnesia as soon as the first commit is visible lands
    // inside the ack-vs-fsync window — the epoch clients already saw
    // acknowledged dies with the planner's volatile log, and the
    // durability/balance checkers catch the regression. A fixed planner
    // never acks before the quorum's fsyncs, so the same crash loses
    // nothing.
    if matches!(
        scope.injected_bug,
        Some(McBug::QStore(QStoreBug::AckBeforeFsync))
    ) {
        let c = Rc::clone(&cluster);
        let s = sim.clone();
        sim.spawn(async move {
            while c.stats().commits == 0 {
                s.sleep(SimDuration::from_micros(200)).await;
            }
            if crash_amnesia(&*c, NodeId(0)) {
                s.sleep(SimDuration::from_millis(20)).await;
                c.recover_crashed_node(NodeId(0));
            }
        });
    }
    sim.run_until(SimTime::ZERO + HORIZON);
    sim.clear_scheduler();

    let checked = battery(scope, &*cluster);
    let stats = cluster.stats();
    let metrics = sim.metrics();

    let (wal_records, wal_fsyncs) = cluster.wal_totals();
    let mut fp = Fnv::new();
    fp.write(stats.commits);
    fp.write(stats.aborts);
    fp.write(stats.batches);
    fp.write(stats.batch_txns);
    fp.write(wal_records);
    fp.write(wal_fsyncs);
    fp.write(metrics.sent_total);
    fp.write(metrics.events);
    checked.hash_state(&mut fp);

    let rec = rec.borrow();
    RunOutcome {
        choices: rec.choices.clone(),
        groups: rec.groups.clone(),
        commits: stats.commits,
        aborts: stats.aborts,
        violations: checked.violations,
        fingerprint: fp.finish(),
    }
}
