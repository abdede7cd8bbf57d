//! Cluster assembly: nodes, replica stores, quorum views, and the message
//! handlers that make each simulated node a QR replica.
//!
//! Mirrors the paper's architecture (Fig. 4): the *Cluster Manager* role —
//! tracking each node's designated read and write quorums — is the shared
//! [`QuorumView`]; the *Transaction Manager* role is split between the node
//! handlers installed here (remote side) and [`crate::Tx`] (local side).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use qrdtm_quorum::{QuorumError, Tree, TreeQuorum};
use qrdtm_sim::{ConstLatency, JitteredLatency, NodeId, Sim, SimConfig, SimDuration};

use crate::engine::DetectorConfig;
use crate::membership::Membership;

use crate::engine::repair;
use crate::engine::wal::ReplicaWal;
use crate::history::{CommitRecord, HistoryRecorder, Violation};
use crate::msg::Msg;
use crate::object::{ObjVal, ObjectId};
use crate::stats::DtmStats;
use crate::store::{NodeStore, ReadOutcome};
use crate::txid::{NestingMode, TxId};

/// What a transaction does when the object it requests is commit-locked.
///
/// The paper's PR/PW lists exist so "contention managers [can] decide which
/// transaction needs to be aborted or committed"; these are the two
/// simplest such managers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockPolicy {
    /// Abort the requester's innermost scope immediately (the default, and
    /// the behaviour the evaluation uses).
    AbortRequester,
    /// Retry the read up to `max_waits` times after `pause`, since commit
    /// locks are transient (~one round trip); abort only after that.
    WaitRetry {
        /// Retries before giving up and aborting.
        max_waits: u32,
        /// Pause between retries.
        pause: SimDuration,
    },
}

/// Link-latency specification (kept plain-data so configs are `Clone`).
#[derive(Clone, Debug)]
pub enum LatencySpec {
    /// Constant one-way latency.
    Const(SimDuration),
    /// Jittered one-way latency (base, jitter fraction).
    Jittered(SimDuration, f64),
    /// Metric-space network (cc-DTM style): nodes placed uniformly in the
    /// unit square by the cluster seed; latency = distance x `per_unit`,
    /// floored. `(per_unit, floor)`.
    Metric(SimDuration, SimDuration),
}

impl LatencySpec {
    /// Nominal one-way latency of the spec (base for Jittered, per-unit
    /// distance cost for Metric) — used to derive default costs such as the
    /// rejoin state-transfer charge.
    pub fn nominal(&self) -> SimDuration {
        match *self {
            LatencySpec::Const(d) => d,
            LatencySpec::Jittered(d, _) => d,
            LatencySpec::Metric(per_unit, floor) => {
                if per_unit > floor {
                    per_unit
                } else {
                    floor
                }
            }
        }
    }

    /// Instantiate the model for a cluster of `nodes`, deriving placement
    /// (for [`LatencySpec::Metric`]) from `seed`.
    pub fn build(&self, nodes: usize, seed: u64) -> Box<dyn qrdtm_sim::LatencyModel> {
        match *self {
            LatencySpec::Const(d) => Box::new(ConstLatency::new(d)),
            LatencySpec::Jittered(d, j) => Box::new(JitteredLatency::new(d, j)),
            LatencySpec::Metric(per_unit, floor) => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d65_7472_6963);
                Box::new(qrdtm_sim::MetricSpace::random(
                    nodes, per_unit, floor, &mut rng,
                ))
            }
        }
    }
}

/// Configuration of a QR-DTM cluster.
#[derive(Clone, Debug)]
pub struct DtmConfig {
    /// Number of replica nodes (the paper's testbed: 40; Fig. 10: 28).
    pub nodes: usize,
    /// Nesting mode the whole cluster runs in.
    pub mode: NestingMode,
    /// Read-quorum level policy (0 = the root alone; 1 = majority of its
    /// children, the paper's Fig. 3 assignment).
    pub read_level: usize,
    /// RNG seed.
    pub seed: u64,
    /// One-way link latency (paper: ~15 ms, i.e. ~30 ms RTT).
    pub latency: LatencySpec,
    /// Per-request server occupancy.
    pub service_time: SimDuration,
    /// QR-CHK: create a checkpoint whenever this many new objects entered
    /// the data set since the previous one.
    pub chk_threshold: usize,
    /// QR-CHK: local cost of creating one checkpoint. The paper measured
    /// ~6 % total overhead for checkpoint creation; at the default
    /// threshold that amortizes to a few milliseconds per checkpoint
    /// (continuation capture + transaction copy).
    pub chk_cost: SimDuration,
    /// Base of the randomized exponential backoff after an abort.
    pub backoff_base: SimDuration,
    /// Backoff cap.
    pub backoff_max: SimDuration,
    /// RPC timeout. Defaults to 500 ms — an order of magnitude above the
    /// paper testbed's ~30 ms RTT, so healthy quorums never trip it, while
    /// injected faults (partitions, drops, unannounced crashes) surface as
    /// timeouts instead of hanging the caller forever. `None` means "trust
    /// the quorum view" and is reachable via [`DtmConfig::no_timeout`].
    pub rpc_timeout: Option<SimDuration>,
    /// Enable Rqv incremental read validation (the paper's §III-B). Turning
    /// it off under QR-CN is the ablation showing why local CT commits need
    /// it: conflicts then surface only at root commit.
    pub rqv: bool,
    /// Contention policy for reads of commit-locked objects.
    pub lock_policy: LockPolicy,
    /// Run the heartbeat failure detector ([`crate::spawn_detector`])
    /// instead of relying on an oracle to call
    /// [`Cluster::fail_node`]/[`Cluster::recover_node`]. Also arms the
    /// transport's retry/hedging path. `None` (the default) keeps the
    /// classic oracle-driven model byte-for-byte identical.
    pub detector: Option<crate::engine::DetectorConfig>,
    /// Time a rejoining node spends busy receiving the state transfer
    /// before it serves requests again. `None` derives it from the object
    /// census: one nominal link latency per object (a naive
    /// one-object-per-message pull from a donor).
    pub transfer_latency: Option<SimDuration>,
    /// Give every replica a simulated disk with a write-ahead log and
    /// periodic snapshots (see [`crate::engine::wal`]). Arms the
    /// crash-restart-with-amnesia semantics
    /// ([`crash_amnesia`](crate::membership::crash_amnesia)): a crashed node loses its volatile
    /// object table and recovers honestly — snapshot+log replay, torn-tail
    /// detection, then quorum repair of the lost suffix. `None` (the
    /// default) keeps replicas memory-only and crashes pause-only,
    /// byte-for-byte identical to the classic model.
    pub durability: Option<crate::engine::DurabilityConfig>,
    /// Deliberately disable one safety mechanism (checker validation only —
    /// see [`InjectedBug`]). `None` (the default) is the correct protocol.
    pub injected_bug: Option<InjectedBug>,
    /// Graceful-degradation machinery for open-loop overload: client-side
    /// retry token budget, deadline-aware early abort and hedge
    /// suppression under saturation pressure. The admission-queue bound
    /// open-loop drivers enforce is `OpenLoopSpec::queue_bound` in
    /// `qrdtm-workloads`, not a knob here. `None` (the default) keeps the
    /// engine's behaviour byte-for-byte identical to the pre-overload model.
    pub overload: Option<OverloadConfig>,
    /// Event-queue implementation for the underlying sim (timing wheel by
    /// default; the heap baseline stays selectable for differential tests
    /// and perf comparisons).
    pub queue: qrdtm_sim::EventQueueKind,
}

/// Knobs of the overload graceful-degradation layer
/// ([`DtmConfig::overload`]). All decisions taken under these knobs are
/// surfaced as engine events and metrics counters — nothing is silently
/// dropped or suppressed.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Not read by the engine or any driver: open-loop runs shed arrivals
    /// past `OpenLoopSpec::queue_bound` in `qrdtm-workloads`. Kept because
    /// the perfbench benchmark sets it.
    pub queue_bound: usize,
    /// Capacity of the client-side retry token bucket. Every transaction
    /// retry draws one token; an empty bucket delays the retry until a
    /// token drips or a commit mints one, bounding the cluster-wide retry
    /// rate under brown-out.
    pub retry_budget_cap: u64,
    /// Tokens minted into the bucket per committed transaction (successes
    /// replenish the budget).
    pub retry_refill_per_commit: u64,
    /// Rate floor of the bucket: one token drips per this much elapsed
    /// virtual time, so a drained bucket cannot deadlock a healthy cluster
    /// whose clients are all waiting on tokens.
    pub retry_drip: SimDuration,
    /// Suppress hedged read rounds while at least this many RPC rounds are
    /// concurrently in timeout/retry (the saturation-pressure gauge):
    /// hedging helps tail latency at low load and must disappear at high
    /// load, where it only amplifies pressure.
    pub hedge_pressure_threshold: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_bound: 64,
            retry_budget_cap: 64,
            retry_refill_per_commit: 2,
            retry_drip: SimDuration::from_millis(50),
            hedge_pressure_threshold: 3,
        }
    }
}

/// Mutable overload bookkeeping shared by every endpoint of a cluster:
/// the retry token bucket and the outstanding-retry pressure gauge.
/// Present unconditionally (cheap cells); consulted only when
/// [`DtmConfig::overload`] is armed.
#[derive(Debug, Default)]
pub(crate) struct OverloadState {
    /// Retry tokens currently available (starts at the bucket capacity).
    pub(crate) retry_tokens: Cell<u64>,
    /// Virtual-time floor (ns) the time-drip refill has been accounted to.
    pub(crate) last_drip_ns: Cell<u64>,
    /// RPC rounds currently in timeout/retry — the saturation gauge hedge
    /// suppression reads.
    pub(crate) retry_pressure: Cell<u64>,
}

/// A deliberately broken protocol variant, used to validate that the
/// checkers (history verification, model-checking invariants) actually
/// catch the class of bug each mechanism exists to prevent. Never enabled
/// by default; only test harnesses set this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Treat a failed vote round as success: commit and apply even when a
    /// write-quorum replica voted no because the object moved under the
    /// transaction. Two concurrent writers can then both install the same
    /// successor version (lost update).
    SkipVoteCheck,
    /// Skip the epoch fence after the vote round: a commit whose votes
    /// straddled a view change is trusted even though its quorum may not
    /// intersect the new view's quorums.
    SkipEpochFence,
}

impl Default for DtmConfig {
    fn default() -> Self {
        DtmConfig {
            nodes: 13,
            mode: NestingMode::Flat,
            read_level: 1,
            seed: 1,
            latency: LatencySpec::Jittered(SimDuration::from_millis(15), 0.1),
            service_time: SimDuration::from_micros(200),
            chk_threshold: 1,
            chk_cost: SimDuration::from_millis(6),
            backoff_base: SimDuration::from_millis(4),
            backoff_max: SimDuration::from_millis(120),
            rpc_timeout: Some(SimDuration::from_millis(500)),
            rqv: true,
            lock_policy: LockPolicy::AbortRequester,
            detector: None,
            transfer_latency: None,
            durability: None,
            injected_bug: None,
            overload: None,
            queue: qrdtm_sim::EventQueueKind::default(),
        }
    }
}

impl DtmConfig {
    /// The paper's main testbed shape: 40 nodes, ~30 ms RTT.
    pub fn paper_testbed(mode: NestingMode, seed: u64) -> Self {
        DtmConfig {
            nodes: 40,
            mode,
            seed,
            ..Default::default()
        }
    }

    /// Explicitly disable RPC timeouts ("trust the quorum view"): a call to
    /// a node the view wrongly believes alive then never resolves, exactly
    /// like a real RPC with no failure detector. Useful for experiments
    /// that want the pure paper model with no timeout machinery.
    pub fn no_timeout(mut self) -> Self {
        self.rpc_timeout = None;
        self
    }
}

/// The quorum view shared by every node (the Cluster Manager of Fig. 4).
pub struct QuorumView {
    tq: TreeQuorum,
    read_level: usize,
    pub(crate) read_q: Vec<NodeId>,
    pub(crate) write_q: Vec<NodeId>,
    /// Bumped on every reconfiguration. Quorum intersection is only
    /// guaranteed between quorums derived from the same view, so a commit
    /// decision whose vote round straddled an epoch change must not be
    /// trusted — the commit layer fences on this.
    pub(crate) epoch: u64,
}

impl QuorumView {
    /// Whether the view still considers `node` a member.
    pub(crate) fn is_view_alive(&self, node: usize) -> bool {
        self.tq.is_alive(node)
    }

    fn recompute(&mut self) -> Result<(), QuorumError> {
        let r = self.tq.read_quorum_at_level(self.read_level)?;
        let w = self.tq.write_quorum()?;
        self.read_q = r.into_iter().map(|v| NodeId(v as u32)).collect();
        self.write_q = w.into_iter().map(|v| NodeId(v as u32)).collect();
        Ok(())
    }
}

/// A decided 2PC phase two whose fan-out is still in flight, registered by
/// the commit layer so a view change can complete it instantly (classic
/// 2PC recovery: an in-doubt transaction *with* a decision is finished
/// during reconfiguration, never left blocking the new view).
pub(crate) enum PendingPhase2 {
    /// Commit decided: install these writes and release the locks.
    Apply(Vec<(ObjectId, crate::object::Version, ObjVal)>),
    /// Abort decided: release any locks granted on these objects.
    Release(Vec<ObjectId>),
}

pub(crate) struct ClusterInner {
    pub(crate) cfg: DtmConfig,
    pub(crate) quorum: RefCell<QuorumView>,
    pub(crate) stats: RefCell<DtmStats>,
    pub(crate) next_seq: Cell<u64>,
    pub(crate) stores: Vec<Rc<RefCell<NodeStore>>>,
    pub(crate) history: RefCell<HistoryRecorder>,
    /// Phase-2 decisions whose fan-out is still in flight. A `BTreeMap`
    /// (not `HashMap`): view-change transfer iterates this map and its
    /// effects reach every store, so iteration order must be deterministic.
    pub(crate) pending: RefCell<std::collections::BTreeMap<TxId, PendingPhase2>>,
    /// Per-node write-ahead logs; armed by [`DtmConfig::durability`].
    pub(crate) wals: Option<Vec<Rc<RefCell<ReplicaWal>>>>,
    /// Nodes that crashed with amnesia and have not yet run recovery;
    /// readmission must replay+repair for them instead of the oracle-grade
    /// state transfer.
    pub(crate) amnesiac: RefCell<Vec<bool>>,
    /// Retry token bucket + saturation pressure gauge (see
    /// [`DtmConfig::overload`]).
    pub(crate) overload: OverloadState,
}

impl ClusterInner {
    pub(crate) fn fresh_txid(&self, node: NodeId) -> TxId {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        TxId { node: node.0, seq }
    }
}

/// A simulated QR-DTM cluster: `cfg.nodes` replicas, each holding a copy of
/// every object, plus the shared quorum view and statistics.
pub struct Cluster {
    sim: Sim<Msg>,
    pub(crate) inner: Rc<ClusterInner>,
}

impl Cluster {
    /// Build a cluster and install the replica handler on every node.
    pub fn new(cfg: DtmConfig) -> Self {
        let sim: Sim<Msg> = Sim::new(SimConfig {
            seed: cfg.seed,
            latency: cfg.latency.build(cfg.nodes, cfg.seed),
            service_time: cfg.service_time,
            service_by_class: [None; qrdtm_sim::MAX_CLASSES],
            queue: cfg.queue,
        });
        let nodes = sim.add_nodes(cfg.nodes);
        let mut view = QuorumView {
            tq: TreeQuorum::new(Tree::ternary(cfg.nodes)),
            read_level: cfg.read_level,
            read_q: Vec::new(),
            write_q: Vec::new(),
            epoch: 0,
        };
        view.recompute()
            .expect("healthy cluster always has quorums");
        let stores: Vec<Rc<RefCell<NodeStore>>> = (0..cfg.nodes)
            .map(|_| Rc::new(RefCell::new(NodeStore::new())))
            .collect();
        let wals: Option<Vec<Rc<RefCell<ReplicaWal>>>> = cfg.durability.map(|d| {
            (0..cfg.nodes)
                .map(|_| Rc::new(RefCell::new(ReplicaWal::new(d))))
                .collect()
        });
        for (i, (&node, store)) in nodes.iter().zip(&stores).enumerate() {
            let store = Rc::clone(store);
            let wal = wals.as_ref().map(|w| Rc::clone(&w[i]));
            sim.set_handler(node, move |ctx, env| {
                let mut st = store.borrow_mut();
                match &env.msg {
                    Msg::ReadReq {
                        root,
                        cur_level,
                        cur_chk,
                        oid,
                        want_write,
                        entries,
                        kind,
                    } => {
                        let out = st.read(
                            *root,
                            *cur_level,
                            *cur_chk,
                            *oid,
                            *want_write,
                            entries,
                            *kind,
                        );
                        let reply = match out {
                            ReadOutcome::Ok(version, val) => Msg::ReadOk {
                                oid: *oid,
                                version,
                                val,
                            },
                            ReadOutcome::Abort(target) => Msg::ReadAbort {
                                target,
                                busy: false,
                            },
                            ReadOutcome::Busy(target) => Msg::ReadAbort { target, busy: true },
                        };
                        ctx.respond(&env, reply);
                    }
                    Msg::CommitReq {
                        root,
                        reads,
                        writes,
                    } => {
                        let ok = st.vote(*root, reads, writes);
                        ctx.respond(&env, Msg::Vote { ok });
                    }
                    Msg::Apply { root, writes } => {
                        st.apply(*root, writes);
                        if let Some(w) = &wal {
                            // WAL the phase-2 application before acking; the
                            // disk work occupies the server beyond the
                            // request's own service time.
                            let cost = w.borrow_mut().record_apply(*root, writes, || st.entries());
                            ctx.occupy(cost);
                        }
                        ctx.respond(&env, Msg::Ack);
                    }
                    Msg::AbortReq { root, oids } => {
                        st.release(*root, oids);
                        ctx.respond(&env, Msg::Ack);
                    }
                    // Replies are routed to CallFutures by the simulator and
                    // never reach a handler.
                    _ => {}
                }
            });
        }
        let amnesiac = RefCell::new(vec![false; cfg.nodes]);
        let retry_cap = cfg.overload.map_or(0, |o| o.retry_budget_cap);
        Cluster {
            sim,
            inner: Rc::new(ClusterInner {
                cfg,
                quorum: RefCell::new(view),
                stats: RefCell::new(DtmStats::default()),
                next_seq: Cell::new(0),
                stores,
                history: RefCell::new(HistoryRecorder::default()),
                pending: RefCell::new(std::collections::BTreeMap::new()),
                wals,
                amnesiac,
                overload: OverloadState {
                    retry_tokens: Cell::new(retry_cap),
                    last_drip_ns: Cell::new(0),
                    retry_pressure: Cell::new(0),
                },
            }),
        }
    }

    /// The underlying simulator (to spawn drivers, run, read metrics).
    pub fn sim(&self) -> &Sim<Msg> {
        &self.sim
    }

    /// Cluster configuration.
    pub fn config(&self) -> &DtmConfig {
        &self.inner.cfg
    }

    /// Install an object on every replica (bootstrap; version 1). With
    /// durability armed the object is also persisted, so an amnesiac
    /// restart can rebuild the census from its own disk.
    pub fn preload(&self, oid: ObjectId, val: ObjVal) {
        for s in &self.inner.stores {
            s.borrow_mut().preload(oid, val.clone());
        }
        if let Some(wals) = &self.inner.wals {
            for w in wals {
                w.borrow_mut().record_preload(oid, val.clone());
            }
        }
    }

    /// Install many objects on every replica.
    pub fn preload_all(&self, objs: impl IntoIterator<Item = (ObjectId, ObjVal)>) {
        for (oid, val) in objs {
            self.preload(oid, val);
        }
    }

    /// Current read quorum (every node uses the same designated quorums, as
    /// in the paper's experiments).
    pub fn read_quorum(&self) -> Vec<NodeId> {
        self.inner.quorum.borrow().read_q.clone()
    }

    /// The Fig. 10 failure victim: the first network-alive member of the
    /// current read quorum. Under a failure detector the view can still
    /// hold a crashed node that has not been ejected yet; it is skipped.
    pub fn read_quorum_victim(&self) -> Option<NodeId> {
        self.read_quorum()
            .into_iter()
            .find(|&n| self.sim.is_alive(n))
    }

    /// Current write quorum.
    pub fn write_quorum(&self) -> Vec<NodeId> {
        self.inner.quorum.borrow().write_q.clone()
    }

    /// Fail a node and reconfigure the shared quorum view (the Cluster
    /// Manager reacting to a failure). Errors if no quorum survives, in
    /// which case the view is left untouched (and the node alive).
    /// Idempotent: failing a node the view already excludes is a no-op.
    pub fn fail_node(&self, node: NodeId) -> Result<(), QuorumError> {
        self.remove_from_view(node, true)
    }

    /// The one view-removal path behind [`Cluster::fail_node`] (also kills
    /// the node in the network) and detector ejection (view-only: a falsely
    /// suspected node keeps serving, but no new quorum includes it).
    fn remove_from_view(&self, node: NodeId, kill_network: bool) -> Result<(), QuorumError> {
        {
            let mut view = self.inner.quorum.borrow_mut();
            if !view.tq.is_alive(node.index()) {
                return Ok(());
            }
            view.tq.fail(node.index());
            if let Err(e) = view.recompute() {
                view.tq.recover(node.index());
                return Err(e);
            }
        }
        if kill_network {
            self.sim.fail_node(node);
        }
        self.view_change_transfer();
        Ok(())
    }

    /// Corrupt the last `records` readable records of `node`'s durable log
    /// (the `corrupt-tail` chaos verb): the damage sits undetected until
    /// the node's next amnesiac restart, whose replay finds the torn tail,
    /// truncates it, and repairs the difference from a read quorum. Returns
    /// whether anything was corrupted (`false` without durability or with
    /// an empty log).
    pub fn corrupt_wal_tail(&self, node: NodeId, records: usize) -> bool {
        match &self.inner.wals {
            Some(w) => w[node.index()].borrow_mut().corrupt_tail(records),
            None => false,
        }
    }

    /// The modelled Cluster Manager's reconfiguration duties, run on every
    /// view change (instantaneous, off the transaction fast path):
    ///
    /// 1. bump the view epoch, fencing commit decisions whose vote round
    ///    straddles the change;
    /// 2. complete every decided-but-in-flight 2PC phase two on every
    ///    alive replica (2PC recovery: in-doubt transactions that already
    ///    have a decision are finished, not left blocking the new view);
    /// 3. state transfer: bring every alive replica up to the newest
    ///    committed copy of every object. Read/write quorum intersection
    ///    is only guaranteed *within* one view, so without this a read
    ///    quorum of the new view could miss commits installed on a write
    ///    quorum of an old one.
    fn view_change_transfer(&self) {
        self.inner.quorum.borrow_mut().epoch += 1;
        let alive: Vec<NodeId> = (0..self.inner.cfg.nodes as u32)
            .map(NodeId)
            .filter(|&n| self.sim.is_alive(n))
            .collect();
        let Some(&donor) = alive.first() else {
            return;
        };
        {
            let pending = self.inner.pending.borrow();
            for (root, ph) in pending.iter() {
                for &n in &alive {
                    let mut st = self.inner.stores[n.index()].borrow_mut();
                    match ph {
                        PendingPhase2::Apply(writes) => st.apply(*root, writes),
                        PendingPhase2::Release(oids) => st.release(*root, oids),
                    }
                }
            }
        }
        let oids = self.inner.stores[donor.index()].borrow().object_ids();
        for oid in oids {
            let newest = alive
                .iter()
                .filter_map(|&n| self.peek(n, oid))
                .max_by_key(|(v, _)| *v);
            if let Some((version, val)) = newest {
                for &n in &alive {
                    self.inner.stores[n.index()]
                        .borrow_mut()
                        .refresh(oid, version, val.clone());
                }
            }
        }
    }

    /// Recover a failed (or falsely ejected) node.
    ///
    /// The replica state it kept while down is stale, and quorum
    /// intersection says nothing about commits it missed — if it rejoined
    /// as (part of) a read quorum unsynchronized, readers could observe
    /// old versions. So rejoin performs a **state transfer**: every object
    /// is brought up to the max-version copy held by the currently alive
    /// nodes before the node re-enters the quorum view. The transfer's
    /// install is atomic w.r.t. the view change, but its *cost* is charged
    /// to the rejoining node as server occupancy
    /// ([`DtmConfig::transfer_latency`], defaulting to one nominal link
    /// latency per transferred object), so requests routed to a fresh
    /// joiner queue behind the transfer in fig10-style runs.
    pub fn recover_node(&self, node: NodeId) -> Result<(), QuorumError> {
        // Idempotent: recovering a node that is alive in both the quorum
        // view and the network is a no-op.
        if self.sim.is_alive(node) && self.inner.quorum.borrow().tq.is_alive(node.index()) {
            return Ok(());
        }
        self.readmit_node(node, true).map(|_| ())
    }

    /// The one readmission path behind [`Cluster::recover_node`] (oracle:
    /// also revives the network) and [`Membership::rejoin`] (view-only):
    /// bring the node's replica up to date — honest
    /// replay+repair if it crashed with amnesia, oracle-grade state
    /// transfer otherwise — then recover it in the quorum view, charge the
    /// transfer as occupancy, and run the view-change duties. Returns the
    /// charged duration.
    fn readmit_node(&self, node: NodeId, revive_network: bool) -> Result<SimDuration, QuorumError> {
        let amnesiac = self.inner.amnesiac.borrow()[node.index()];
        let transfer = if amnesiac {
            self.amnesia_recovery(node)
        } else {
            self.state_transfer_to(node)
        };
        {
            let mut view = self.inner.quorum.borrow_mut();
            view.tq.recover(node.index());
            view.recompute()?;
        }
        if revive_network {
            self.sim.recover_node(node);
        }
        // The joiner spends the transfer time busy before serving again;
        // requests the new view routes to it queue behind the transfer.
        self.sim.occupy(node, transfer);
        self.view_change_transfer();
        Ok(transfer)
    }

    /// Honest recovery of an amnesiac replica, the tentpole of the
    /// durable-storage model:
    ///
    /// 1. **Replay**: read the durable snapshot+log back and reinstall it.
    ///    A torn tail (crash mid-append, or a `corrupt-tail` fault) is
    ///    detected and truncated — everything after the tear is treated as
    ///    lost.
    /// 2. **Quorum repair**: reconcile per-object versions against the
    ///    current read quorum (the paper's read rule — the max-version
    ///    quorum copy is the committed one) and pull every object the disk
    ///    image is missing or behind on. Charged one version-census round
    ///    trip plus one nominal link latency per repaired object, on top
    ///    of the disk replay cost.
    /// 3. **Re-baseline**: snapshot the repaired table so the disk is
    ///    caught up too.
    ///
    /// Returns the total occupancy to charge the restarting node.
    fn amnesia_recovery(&self, node: NodeId) -> SimDuration {
        let wals = self
            .inner
            .wals
            .as_ref()
            .expect("amnesiac node implies durability");
        let img = wals[node.index()].borrow_mut().replay();
        let mut store = NodeStore::new();
        for (oid, version, val) in img.installs {
            store.sync(oid, version, val);
        }
        let mut cost = img.cost;
        repair::account_wal_replay(
            &self.sim,
            node,
            img.records_replayed,
            img.torn_tail_detected,
        );
        // Full replication: any alive peer knows the object census (the
        // disk image alone cannot — that is the point of the repair).
        let census: Vec<ObjectId> = {
            let donor = self
                .inner
                .stores
                .iter()
                .enumerate()
                .find(|(i, _)| *i != node.index() && self.sim.is_alive(NodeId(*i as u32)))
                .map(|(_, s)| s)
                .expect("at least one alive peer");
            donor.borrow().object_ids()
        };
        let rq: Vec<NodeId> = self
            .read_quorum()
            .into_iter()
            .filter(|&n| n != node && self.sim.is_alive(n))
            .collect();
        let mut repaired = 0u64;
        let mut bytes = 0u64;
        for oid in census {
            let newest = rq
                .iter()
                .filter_map(|&n| self.peek(n, oid))
                .max_by_key(|(v, _)| *v);
            if let Some((version, val)) = newest {
                let behind = store.get(oid).is_none_or(|r| r.version < version);
                if behind {
                    repaired += 1;
                    bytes += val.approx_size() as u64;
                    store.sync(oid, version, val);
                }
            }
        }
        let nominal = self.inner.cfg.latency.nominal();
        cost += repair::charge_quorum_repair(&self.sim, node, repaired, bytes, nominal);
        cost += wals[node.index()]
            .borrow_mut()
            .snapshot_now(store.entries());
        *self.inner.stores[node.index()].borrow_mut() = store;
        self.inner.amnesiac.borrow_mut()[node.index()] = false;
        cost
    }

    /// Bring `node`'s replica up to the max-version copy held by the other
    /// alive nodes and return the occupancy cost to charge for it
    /// ([`DtmConfig::transfer_latency`], defaulting to one nominal link
    /// latency per transferred object).
    fn state_transfer_to(&self, node: NodeId) -> SimDuration {
        let oids: Vec<ObjectId> = {
            // Any alive store knows the full object census (full replication).
            let donor = self
                .inner
                .stores
                .iter()
                .enumerate()
                .find(|(i, _)| self.sim.is_alive(NodeId(*i as u32)))
                .map(|(_, s)| s)
                .expect("at least one alive node");
            donor.borrow().object_ids()
        };
        let transfer = self.transfer_cost();
        for oid in oids {
            let newest = (0..self.inner.cfg.nodes as u32)
                .map(NodeId)
                .filter(|&n| n != node && self.sim.is_alive(n))
                .filter_map(|n| self.peek(n, oid))
                .max_by_key(|(v, _)| *v);
            if let Some((version, val)) = newest {
                self.inner.stores[node.index()]
                    .borrow_mut()
                    .sync(oid, version, val);
            }
        }
        transfer
    }

    /// Snapshot of the transaction statistics.
    pub fn stats(&self) -> DtmStats {
        self.inner.stats.borrow().clone()
    }

    /// Zero the transaction statistics (e.g. after warm-up).
    pub fn reset_stats(&self) {
        *self.inner.stats.borrow_mut() = DtmStats::default();
    }

    /// Read an object's replica at a specific node (tests, invariants).
    pub fn peek(&self, node: NodeId, oid: ObjectId) -> Option<(crate::object::Version, ObjVal)> {
        self.inner.stores[node.index()]
            .borrow()
            .get(oid)
            .map(|r| (r.version, r.val.clone()))
    }

    /// The latest committed value of an object, as a reader would see it:
    /// max-version copy across the current read quorum.
    pub fn latest(&self, oid: ObjectId) -> Option<(crate::object::Version, ObjVal)> {
        self.read_quorum()
            .into_iter()
            .filter_map(|n| self.peek(n, oid))
            .max_by_key(|(v, _)| *v)
    }

    /// Open a client bound to `node`; transactions it runs originate there.
    pub fn client(&self, node: NodeId) -> crate::engine::Client {
        crate::engine::Client::new(self.sim.clone(), Rc::clone(&self.inner), node)
    }

    /// Start recording the committed history for [`Cluster::verify_history`].
    pub fn enable_history(&self) {
        self.inner.history.borrow_mut().enable();
    }

    /// The commits recorded since [`Cluster::enable_history`].
    pub fn history(&self) -> Vec<CommitRecord> {
        self.inner.history.borrow().records().to_vec()
    }

    /// Check the recorded history for 1-copy-serializability violations
    /// (see [`crate::history`]); empty means the execution is equivalent to
    /// the serial order of its serialization points.
    pub fn verify_history(&self) -> Vec<Violation> {
        crate::history::verify(self.inner.history.borrow().records())
    }
}

/// QR's quorum view as the shared [`Membership`].
impl Membership for Cluster {
    type Msg = Msg;

    fn sim(&self) -> &Sim<Msg> {
        &self.sim
    }

    fn detector_config(&self) -> Option<DetectorConfig> {
        self.inner.cfg.detector
    }

    fn view_alive(&self, node: NodeId) -> bool {
        self.inner.quorum.borrow().is_view_alive(node.index())
    }

    fn view_epoch(&self) -> u64 {
        self.inner.quorum.borrow().epoch
    }

    /// Probes a scratch quorum system; the live view is untouched.
    fn survives_without(&self, node: NodeId) -> bool {
        let mut probe = TreeQuorum::new(Tree::ternary(self.inner.cfg.nodes));
        for n in 0..self.inner.cfg.nodes {
            if n == node.index() || !self.sim.is_alive(NodeId(n as u32)) {
                probe.fail(n);
            }
        }
        probe
            .read_quorum_at_level(self.inner.cfg.read_level)
            .is_ok()
            && probe.write_quorum().is_ok()
    }

    fn oracle_crash(&self, node: NodeId) -> bool {
        self.fail_node(node).is_ok()
    }

    fn oracle_recover(&self, node: NodeId) -> bool {
        self.recover_node(node).is_ok()
    }

    fn eject(&self, node: NodeId) -> bool {
        self.remove_from_view(node, false).is_ok()
    }

    /// Whether the node is actually network-alive is the nemesis's or
    /// oracle's business, never the detector's: a detector that resurrected
    /// nodes would heal the very faults it is supposed to detect.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration> {
        self.readmit_node(node, false).ok()
    }

    fn lost_state(&self, node: NodeId) -> bool {
        self.inner.amnesiac.borrow()[node.index()]
    }

    /// Empty object table, seeded partial loss of the unsynced disk
    /// buffer, amnesiac flag set.
    fn forget(&self, node: NodeId) {
        let wals = self
            .inner
            .wals
            .as_ref()
            .expect("crash-amnesia requires DtmConfig::durability");
        *self.inner.stores[node.index()].borrow_mut() = NodeStore::new();
        self.sim
            .with_rng(|rng| wals[node.index()].borrow_mut().crash(rng));
        self.inner.amnesiac.borrow_mut()[node.index()] = true;
    }

    /// The state-transfer occupancy a rejoining node is charged
    /// ([`DtmConfig::transfer_latency`], defaulting to one nominal link
    /// latency per object in the census).
    fn transfer_cost(&self) -> SimDuration {
        self.inner.cfg.transfer_latency.unwrap_or_else(|| {
            // Full replication: any store knows the census.
            let census = self.inner.stores[0].borrow().object_ids().len();
            self.inner.cfg.latency.nominal() * census as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_builds_quorums() {
        let c = Cluster::new(DtmConfig::default());
        assert_eq!(c.read_quorum(), vec![NodeId(1), NodeId(2)], "Fig. 3's R1");
        assert_eq!(c.write_quorum().len(), 7);
        assert_eq!(c.sim().num_nodes(), 13);
    }

    #[test]
    fn preload_reaches_every_replica() {
        let c = Cluster::new(DtmConfig::default());
        c.preload(ObjectId(5), ObjVal::Int(99));
        for n in 0..13u32 {
            let (v, val) = c.peek(NodeId(n), ObjectId(5)).unwrap();
            assert_eq!(v, crate::object::Version::INITIAL);
            assert_eq!(val, ObjVal::Int(99));
        }
    }

    #[test]
    fn fail_node_reconfigures_quorums() {
        let c = Cluster::new(DtmConfig {
            read_level: 0,
            ..Default::default()
        });
        assert_eq!(c.read_quorum(), vec![NodeId(0)]);
        c.fail_node(NodeId(0)).unwrap();
        assert_eq!(c.read_quorum(), vec![NodeId(1), NodeId(2)]);
        assert!(!c.sim().is_alive(NodeId(0)));
        c.recover_node(NodeId(0)).unwrap();
        assert_eq!(c.read_quorum(), vec![NodeId(0)]);
    }

    #[test]
    fn latest_picks_max_version_across_read_quorum() {
        let c = Cluster::new(DtmConfig::default());
        c.preload(ObjectId(1), ObjVal::Int(0));
        // Bump the copy at node 2 only (as if a write quorum had touched it).
        c.inner.stores[2].borrow_mut().apply(
            TxId { node: 9, seq: 9 },
            &[(ObjectId(1), crate::object::Version(4), ObjVal::Int(44))],
        );
        let (v, val) = c.latest(ObjectId(1)).unwrap();
        assert_eq!(v, crate::object::Version(4));
        assert_eq!(val, ObjVal::Int(44));
    }

    #[test]
    fn txids_are_unique() {
        let c = Cluster::new(DtmConfig::default());
        let a = c.inner.fresh_txid(NodeId(3));
        let b = c.inner.fresh_txid(NodeId(3));
        assert_ne!(a, b);
    }
}
