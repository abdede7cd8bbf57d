//! One membership model for every fault-tolerant family.
//!
//! QR's quorum view and Q-Store's planner view are both the paper's
//! Cluster Manager (Fig. 4): a shared record of who is alive, fenced by an
//! epoch every reconfiguration bumps. Each family implements the
//! [`Membership`] hooks; the failure detector
//! ([`spawn_detector`](crate::spawn_detector)), its [`detection_bound`]
//! and the [`crash`] / [`recover`] / [`crash_amnesia`] verbs are written
//! once over them. Each verb takes the *oracle* path (the family repairs
//! the view at the instant of the fault) unless the family's config arms
//! a detector; then it takes the *sim-only* path, touching the simulated
//! network only and leaving the view to the detector.

use qrdtm_sim::{NodeId, Sim, SimDuration, SimMessage};

use crate::engine::DetectorConfig;

/// The view hooks a fault-tolerant family exposes to the shared detector
/// and verbs.
pub trait Membership {
    /// Wire message type of the family's simulator.
    type Msg: SimMessage;

    /// The simulator the family runs on (repeated from `SimHosted`, which
    /// cannot be a trait object).
    fn sim(&self) -> &Sim<Self::Msg>;

    /// The detector knobs, when the config arms one (sim-only verbs).
    fn detector_config(&self) -> Option<DetectorConfig>;

    /// Whether the view counts `node` a member. Under a detector this may
    /// lag or contradict the network.
    fn view_alive(&self, node: NodeId) -> bool;

    /// The view (fencing) epoch.
    fn view_epoch(&self) -> u64;

    /// Whether the family keeps its quorums if `node` dies too, counting
    /// every node the network has already killed.
    fn survives_without(&self, node: NodeId) -> bool;

    /// Oracle crash: repair the view and kill `node` in the network.
    fn oracle_crash(&self, node: NodeId) -> bool;

    /// Oracle recovery: readmit a crashed `node` to view and network.
    fn oracle_recover(&self, node: NodeId) -> bool;

    /// Detector ejection from the view only; refused (false) when the view
    /// would lose its quorums.
    fn eject(&self, node: NodeId) -> bool;

    /// Readmit `node` to the view only: replay and repair if it lost its
    /// memory, else bring it up to date. Returns the charged cost (the
    /// detector's grace period), or `None` when refused.
    fn rejoin(&self, node: NodeId) -> Option<SimDuration>;

    /// Whether `node` lost state at its crash that only a rejoin rebuilds:
    /// its memory, or (Q-Store) the planner's in-flight epoch.
    fn lost_state(&self, node: NodeId) -> bool;

    /// Wipe `node`'s volatile state and crash its disk. Panics without
    /// durable storage.
    fn forget(&self, node: NodeId);

    /// The state-transfer occupancy a rejoining node is charged.
    fn transfer_cost(&self) -> SimDuration;
}

/// Crash `node`; false when inapplicable. Sim-only, a node that is already
/// down or whose death would cost the quorums is refused: the detector
/// could only refuse its ejection, and the cluster would stall.
pub fn crash<M: Membership + ?Sized>(m: &M, node: NodeId) -> bool {
    if m.detector_config().is_none() {
        return m.oracle_crash(node);
    }
    if !m.sim().is_alive(node) || !m.survives_without(node) {
        return false;
    }
    m.sim().fail_node(node);
    true
}

/// Recover a crashed `node`; false when inapplicable. Sim-only, the
/// detector rejoins the node once it hears it, but it never rejoins a node
/// whose ejection it had to refuse. Such a node that lost state is
/// readmitted here, so an amnesiac always replays and repairs before it
/// serves, ejected or not.
pub fn recover<M: Membership + ?Sized>(m: &M, node: NodeId) -> bool {
    if m.detector_config().is_none() {
        return m.oracle_recover(node);
    }
    if m.sim().is_alive(node) {
        return false;
    }
    m.sim().recover_node(node);
    if m.view_alive(node) && m.lost_state(node) {
        m.rejoin(node);
    }
    true
}

/// Crash `node` with amnesia: [`crash`], then the family's
/// [`forget`](Membership::forget) hook.
pub fn crash_amnesia<M: Membership + ?Sized>(m: &M, node: NodeId) -> bool {
    if !crash(m, node) {
        return false;
    }
    m.forget(node);
    true
}

/// How long after a sim-only fault the detector may take to converge
/// (`None` without one): suspicion fires once silence exceeds the window,
/// four more intervals cover heartbeat staggering, delivery and tick
/// quantization, and the transfer covers a joiner's grace period.
pub fn detection_bound<M: Membership + ?Sized>(m: &M) -> Option<SimDuration> {
    m.detector_config()
        .map(|d| d.suspect_window() * 2 + d.interval * 4 + m.transfer_cost())
}
