//! Failure detection: heartbeat-driven, suspicion-based membership.
//!
//! Replaces the membership oracle with honest detection, for every family
//! behind [`Membership`]: every node emits periodic heartbeats through the
//! simulated network (latency, partitions, gray slowness and all — see
//! [`Sim::start_heartbeats`](qrdtm_sim::Sim::start_heartbeats)), and a
//! detector task turns *missed* heartbeats into suspicions, suspicions
//! into epoch-fenced view changes ([`Membership::eject`]; for Q-Store a
//! planner ejection fails the planner over), and resumed heartbeats from a
//! suspected node into rejoin-with-state-transfer ([`Membership::rejoin`]).
//!
//! ## Semantics
//!
//! The detector models the paper's shared *Cluster Manager* (Fig. 4), so
//! like the view it is a single logical entity: one task reads the full
//! observation matrix `last_hb[observer][sender]` and drives the shared
//! view. Each tick it
//!
//! 1. builds the **freshness graph** over view-alive nodes — an edge means
//!    both endpoints heard each other within the suspicion window
//!    (`interval × suspect_after`);
//! 2. keeps the largest connected component (ties to the one containing
//!    the lowest id) as the *reference partition* — under a network
//!    partition this is the majority side, exactly the side that should
//!    keep the view;
//! 3. ejects every view-alive node outside that component, unless doing so
//!    would destroy the quorums (then the node stays: a stale member is
//!    better than no view at all). A suspicion of a node the network still
//!    considers alive is counted as a **false suspicion** — survivable by
//!    construction, since ejection only changes the view and the commit
//!    path re-validates everything;
//! 4. rejoins every view-dead node some view-alive observer has heard
//!    within the window (crash healed, partition healed, or the suspicion
//!    was false all along) via the state-transferring rejoin.
//!
//! Everything is driven by the simulator's seeded clock and RNG, so
//! suspicion timestamps, view epochs and rejoins are exactly reproducible
//! per seed.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_sim::{
    Counter, EngineEventKind, HeartbeatConfig, NodeId, Sim, SimDuration, SimMessage, SimTime,
};

use crate::membership::Membership;

/// Knobs of the failure detector and the transport robustness that rides
/// along with it (see [`DtmConfig::detector`](crate::DtmConfig::detector)).
#[derive(Clone, Copy, Debug)]
pub struct DetectorConfig {
    /// Heartbeat period (each node, to every other node).
    pub interval: SimDuration,
    /// Relative jitter on the period (seeded; desynchronizes emitters).
    pub jitter: f64,
    /// Suspect a node after this many silent intervals. Lower detects
    /// faster but false-suspects slow-but-alive nodes more often.
    pub suspect_after: u32,
    /// Transport: re-issue a timed-out quorum RPC up to this many times
    /// (capped exponential backoff between attempts) before aborting.
    pub rpc_retries: u32,
    /// Transport: send read rounds to `read_q + hedge` destinations and
    /// accept the first `|read_q|` replies, masking slow members at the
    /// cost of wasted replies. 0 disables hedging.
    pub hedge: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            interval: SimDuration::from_millis(50),
            jitter: 0.2,
            suspect_after: 4,
            rpc_retries: 2,
            hedge: 1,
        }
    }
}

impl DetectorConfig {
    /// Silence threshold beyond which a node is suspected.
    pub fn suspect_window(&self) -> SimDuration {
        self.interval * u64::from(self.suspect_after)
    }

    fn heartbeat(&self) -> HeartbeatConfig {
        HeartbeatConfig {
            interval: self.interval,
            jitter: self.jitter,
            suspect_after: self.suspect_after,
        }
    }
}

/// Handle on a running detector task (see [`spawn_detector`]).
pub struct DetectorHandle<M: SimMessage> {
    stop: Rc<Cell<bool>>,
    sim: Sim<M>,
}

impl<M: SimMessage> DetectorHandle<M> {
    /// Stop the detector task (at its next tick) and the heartbeat layer.
    /// The membership view stays as the detector last left it.
    pub fn stop(&self) {
        self.stop.set(true);
        self.sim.stop_heartbeats();
    }
}

/// Start the heartbeat layer and the detector task for `m`, whose config
/// must arm a detector ([`Membership::detector_config`]).
///
/// From this point on the cluster self-heals: no oracle calls are needed —
/// kill or heal nodes in the simulator and the view follows within
/// [`detection_bound`](crate::membership::detection_bound).
pub fn spawn_detector<M: Membership + ?Sized + 'static>(m: &Rc<M>) -> DetectorHandle<M::Msg> {
    let cfg = m
        .detector_config()
        .expect("spawn_detector requires a detector in the cluster's config");
    let sim = m.sim().clone();
    sim.start_heartbeats(cfg.heartbeat());
    let stop = Rc::new(Cell::new(false));
    let m = Rc::clone(m);
    let stopped = Rc::clone(&stop);
    sim.spawn(async move {
        let nodes = m.sim().num_nodes();
        let mut st = DetectorState {
            suspected_at: vec![SimTime::ZERO; nodes],
            grace_until: vec![SimTime::ZERO; nodes],
        };
        loop {
            m.sim().sleep(cfg.interval).await;
            if stopped.get() {
                return;
            }
            tick(&*m, &cfg, &mut st);
        }
    });
    DetectorHandle { stop, sim }
}

/// Per-node bookkeeping the detector keeps across ticks.
struct DetectorState {
    /// When each node was last ejected by this detector — a rejoin
    /// requires a heartbeat heard strictly *after* that, so a stale
    /// in-flight beat from just before the suspicion can never flap the
    /// node straight back into the view.
    suspected_at: Vec<SimTime>,
    /// Post-rejoin grace: a fresh joiner is busy with its state transfer,
    /// so its own heartbeats queue behind it. The manager charged that
    /// transfer itself, so re-suspecting the node before
    /// `rejoin + transfer + window` has passed would be a self-inflicted
    /// eject/rejoin flap — suspicion is suppressed until then.
    grace_until: Vec<SimTime>,
}

/// One detector evaluation over the simulator's heartbeat observation
/// matrix.
fn tick<M: Membership + ?Sized>(m: &M, cfg: &DetectorConfig, st: &mut DetectorState) {
    let sim = m.sim();
    let nodes = sim.num_nodes();
    let now = sim.now();
    let window = cfg.suspect_window();
    let fresh = |observer: NodeId, sender: NodeId| {
        now.saturating_since(sim.last_heartbeat(observer, sender)) <= window
    };
    let trusted: Vec<NodeId> = (0..nodes as u32)
        .map(NodeId)
        .filter(|&n| m.view_alive(n))
        .collect();

    // Reference partition: largest bidirectionally-fresh component.
    let reference = reference_component(&trusted, &fresh);
    for &n in &trusted {
        if reference.contains(&n) {
            continue;
        }
        // A joiner still inside its state-transfer grace window is
        // expected to be silent; give it time before suspecting again.
        if now < st.grace_until[n.index()] {
            continue;
        }
        // Outside the reference component: suspect. Ejection fails only
        // when the view would lose its quorums without the node; then the
        // suspect stays (and is re-examined next tick).
        if !m.eject(n) {
            continue;
        }
        st.suspected_at[n.index()] = now;
        sim.bump(Counter::Suspicions);
        if sim.is_alive(n) {
            sim.bump(Counter::FalseSuspicions);
        }
        sim.emit_engine_event(EngineEventKind::NodeSuspected, n, m.view_epoch());
    }

    // Rejoin: a view-dead node is back once some view-alive observer has
    // heard it *after* the ejection and within the window (crash healed,
    // partition healed, or the suspicion was false all along). View-only
    // — rejoin never resurrects the node in the network; that is the
    // oracle's (or nemesis's) business.
    for v in (0..nodes as u32).map(NodeId) {
        if m.view_alive(v) {
            continue;
        }
        let heard = (0..nodes as u32)
            .map(NodeId)
            .filter(|&o| o != v && m.view_alive(o))
            .map(|o| sim.last_heartbeat(o, v))
            .max()
            .unwrap_or(SimTime::ZERO);
        // Strictly newer than the window also implies newer than the
        // heartbeat start (last_hb seeds at start time), so a node that
        // never beat is not rejoined by the seed value.
        if heard > st.suspected_at[v.index()] && now.saturating_since(heard) <= window {
            if let Some(transfer) = m.rejoin(v) {
                st.grace_until[v.index()] = now + transfer + window;
                sim.bump(Counter::Rejoins);
                sim.emit_engine_event(EngineEventKind::NodeRejoined, v, m.view_epoch());
            }
        }
    }
}

/// Largest connected component of the bidirectional-freshness graph over
/// `trusted`; ties break to the component containing the lowest node id.
fn reference_component(trusted: &[NodeId], fresh: &dyn Fn(NodeId, NodeId) -> bool) -> Vec<NodeId> {
    let mut best: Vec<NodeId> = Vec::new();
    let mut seen: Vec<NodeId> = Vec::new();
    for &start in trusted {
        if seen.contains(&start) {
            continue;
        }
        // BFS over "a and b heard each other within the window".
        let mut comp = vec![start];
        let mut frontier = vec![start];
        while let Some(a) = frontier.pop() {
            for &b in trusted {
                if !comp.contains(&b) && fresh(a, b) && fresh(b, a) {
                    comp.push(b);
                    frontier.push(b);
                }
            }
        }
        seen.extend(comp.iter().copied());
        // Larger wins; first-found (containing the lowest unseen id, and
        // trusted is id-sorted) wins ties.
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best
}
