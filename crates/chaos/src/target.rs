//! What the nemesis needs from a protocol beyond [`DtmProtocol`]:
//! which fault classes it can honestly be subjected to, the membership
//! view its nodes crash and recover through, and how to read back
//! committed state for the checkers.

use std::rc::Rc;

use qrdtm_baselines::{DecentCluster, TfaCluster};
use qrdtm_core::{Cluster, CommitRecord, Membership, ObjectId, SimHosted};
use qrdtm_qstore::QStoreCluster;
use qrdtm_sim::NodeId;

use crate::plan::FaultKind;

/// The fault classes a protocol tolerates by design.
///
/// The paper is explicit that the baselines are *not* fault-tolerant (TFA
/// has single-copy home nodes; Decent-STM as modelled has no recovery
/// protocol), so subjecting them to crashes or partitions would only
/// reconfirm their stated assumptions by hanging or losing the single
/// copy. Gray failures — slow nodes, latency spikes — violate no
/// assumption of any protocol, so every target supports them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSupport {
    /// Crash-stop failures with quorum-view repair.
    pub crashes: bool,
    /// Network partitions.
    pub partitions: bool,
    /// Probabilistic per-link message loss.
    pub link_drops: bool,
    /// Crash-restart-with-amnesia and durable-log corruption — requires
    /// the target to actually keep durable storage (QR with
    /// `DtmConfig::durability` armed).
    pub amnesia: bool,
}

impl FaultSupport {
    /// Everything (the QR-DTM configurations; amnesia additionally needs
    /// durable storage armed — see [`ChaosTarget::fault_support`] for
    /// `Cluster`).
    pub fn all() -> Self {
        FaultSupport {
            crashes: true,
            partitions: true,
            link_drops: true,
            amnesia: true,
        }
    }

    /// Gray failures only (the baselines).
    pub fn gray_only() -> Self {
        FaultSupport {
            crashes: false,
            partitions: false,
            link_drops: false,
            amnesia: false,
        }
    }

    /// Whether a fault event may be applied to a target with this support.
    /// Cures are always allowed (they only remove faults).
    pub fn allows(&self, kind: &FaultKind) -> bool {
        if kind.is_cure() {
            return true;
        }
        match kind {
            FaultKind::Crash { .. } | FaultKind::CrashReadQuorum => self.crashes,
            FaultKind::Partition { .. } => self.partitions,
            FaultKind::DropLink { .. } => self.link_drops,
            FaultKind::CrashAmnesia { .. } | FaultKind::CorruptTail { .. } => self.amnesia,
            FaultKind::Delay { .. } | FaultKind::Slow { .. } => true,
            _ => true,
        }
    }
}

/// A protocol the nemesis can drive: a simulator-hosted [`DtmProtocol`]
/// plus fault hooks and committed-state access for the post-hoc checkers.
pub trait ChaosTarget: SimHosted {
    /// Which fault classes this protocol may be subjected to.
    fn fault_support(&self) -> FaultSupport;

    /// The membership view the shared crash/recover verbs and failure
    /// detector drive, or `None` for a target that keeps none (TFA and
    /// Decent-STM, which take no crashes).
    fn membership(self: Rc<Self>) -> Option<Rc<dyn Membership<Msg = Self::Msg>>> {
        None
    }

    /// The node a [`FaultKind::CrashReadQuorum`] event should kill (the
    /// Fig. 10 victim), if the notion applies.
    fn read_quorum_victim(&self) -> Option<NodeId> {
        None
    }

    /// Start recording a commit history for post-hoc serializability
    /// checking (no-op if the protocol has no recorder).
    fn begin_history(&self) {}

    /// Violations found by replaying the recorded history (empty if the
    /// protocol has no recorder).
    fn history_violations(&self) -> Vec<String> {
        Vec::new()
    }

    /// The committed value of an integer object as a client reading after
    /// quiescence would see it.
    fn committed_int(&self, oid: ObjectId) -> Option<i64>;

    /// Corrupt the tail of `node`'s durable log in place. Returns false if
    /// the target keeps no durable log (or it is empty).
    fn corrupt_tail(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// The committed version of an object as a quorum reader would see it
    /// (for the durability checker; `None` if unknown or inapplicable).
    fn committed_version(&self, oid: ObjectId) -> Option<u64> {
        let _ = oid;
        None
    }

    /// Every `(object id, installed version)` pair acknowledged to a
    /// client by a successful commit, from the recorded history (empty
    /// without a recorder). The durability checker asserts none of these
    /// regressed after the run.
    fn acked_write_versions(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Batch-oriented protocols only: violations of epoch (batch)
    /// atomicity — a committed transaction observing a write from an
    /// unacknowledged batch. Empty for per-transaction protocols.
    fn batch_atomicity_violations(&self) -> Vec<String> {
        Vec::new()
    }

    /// The target's client retry budget as `(cap, refill_per_commit,
    /// drip)`, when overload protection is armed — feeds the no-retry-storm
    /// checker. `None` when the protocol has no budget (nothing to check).
    fn retry_budget(&self) -> Option<(u64, u64, qrdtm_sim::SimDuration)> {
        None
    }
}

/// `(object id, installed version)` of every write in a commit history.
fn acked_writes(history: &[CommitRecord]) -> Vec<(u64, u64)> {
    history
        .iter()
        .flat_map(|rec| rec.writes.iter().map(|(oid, _, v)| (oid.0, v.0)))
        .collect()
}

impl ChaosTarget for Cluster {
    fn fault_support(&self) -> FaultSupport {
        FaultSupport {
            // Amnesia needs a disk to restart from.
            amnesia: self.config().durability.is_some(),
            ..FaultSupport::all()
        }
    }

    fn membership(self: Rc<Self>) -> Option<Rc<dyn Membership<Msg = Self::Msg>>> {
        Some(self)
    }

    fn read_quorum_victim(&self) -> Option<NodeId> {
        self.read_quorum().first().copied()
    }

    fn begin_history(&self) {
        self.enable_history();
    }

    fn history_violations(&self) -> Vec<String> {
        self.verify_history()
            .iter()
            .map(|v| v.to_string())
            .collect()
    }

    fn committed_int(&self, oid: ObjectId) -> Option<i64> {
        self.latest(oid).map(|(_, v)| v.expect_int())
    }

    fn corrupt_tail(&self, node: NodeId) -> bool {
        self.corrupt_wal_tail(node, 1)
    }

    fn committed_version(&self, oid: ObjectId) -> Option<u64> {
        self.latest(oid).map(|(v, _)| v.0)
    }

    fn acked_write_versions(&self) -> Vec<(u64, u64)> {
        acked_writes(&self.history())
    }

    fn retry_budget(&self) -> Option<(u64, u64, qrdtm_sim::SimDuration)> {
        self.config()
            .overload
            .map(|o| (o.retry_budget_cap, o.retry_refill_per_commit, o.retry_drip))
    }
}

impl ChaosTarget for TfaCluster {
    fn fault_support(&self) -> FaultSupport {
        FaultSupport::gray_only()
    }

    fn committed_int(&self, oid: ObjectId) -> Option<i64> {
        self.latest(oid).map(|v| v.expect_int())
    }
}

impl ChaosTarget for DecentCluster {
    fn fault_support(&self) -> FaultSupport {
        FaultSupport::gray_only()
    }

    fn committed_int(&self, oid: ObjectId) -> Option<i64> {
        self.latest(oid).map(|v| v.expect_int())
    }
}

impl ChaosTarget for QStoreCluster {
    fn fault_support(&self) -> FaultSupport {
        // Crash-stop with planner failover, partitions and lossy links are
        // tolerated by design; amnesia additionally needs the per-replica
        // batch WAL on the simulated disk to restart from.
        FaultSupport {
            amnesia: self.config().durability.is_some(),
            ..FaultSupport::all()
        }
    }

    fn membership(self: Rc<Self>) -> Option<Rc<dyn Membership<Msg = Self::Msg>>> {
        Some(self)
    }

    fn begin_history(&self) {
        QStoreCluster::begin_history(self);
    }

    fn history_violations(&self) -> Vec<String> {
        self.verify_history()
            .iter()
            .map(|v| v.to_string())
            .collect()
    }

    fn committed_int(&self, oid: ObjectId) -> Option<i64> {
        self.latest(oid).map(|(_, v)| v.expect_int())
    }

    fn corrupt_tail(&self, node: NodeId) -> bool {
        self.config().durability.is_some() && QStoreCluster::corrupt_tail(self, node, 1)
    }

    fn committed_version(&self, oid: ObjectId) -> Option<u64> {
        self.latest(oid).map(|(v, _)| v.0)
    }

    fn acked_write_versions(&self) -> Vec<(u64, u64)> {
        acked_writes(&self.history())
    }

    fn batch_atomicity_violations(&self) -> Vec<String> {
        QStoreCluster::batch_atomicity_violations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_masks_gate_hard_faults_but_never_cures() {
        let gray = FaultSupport::gray_only();
        assert!(!gray.allows(&FaultKind::Crash { node: 1 }));
        assert!(!gray.allows(&FaultKind::CrashReadQuorum));
        assert!(!gray.allows(&FaultKind::Partition { groups: vec![] }));
        assert!(!gray.allows(&FaultKind::DropLink {
            from: 0,
            to: 1,
            permille: 500
        }));
        assert!(gray.allows(&FaultKind::Delay {
            from: 0,
            to: 1,
            extra_us: 1000
        }));
        assert!(gray.allows(&FaultKind::Slow {
            node: 1,
            factor_pct: 300
        }));
        assert!(gray.allows(&FaultKind::Heal));
        assert!(gray.allows(&FaultKind::Recover { node: 1 }));
        assert!(!gray.allows(&FaultKind::CrashAmnesia { node: 1 }));
        assert!(!gray.allows(&FaultKind::CorruptTail { node: 1 }));
        let all = FaultSupport::all();
        assert!(all.allows(&FaultKind::Crash { node: 1 }));
        assert!(all.allows(&FaultKind::CrashReadQuorum));
        assert!(all.allows(&FaultKind::CrashAmnesia { node: 1 }));
        assert!(all.allows(&FaultKind::CorruptTail { node: 1 }));
        // A durability-less QR cluster supports crashes but not amnesia.
        let pause_only = FaultSupport {
            amnesia: false,
            ..FaultSupport::all()
        };
        assert!(pause_only.allows(&FaultKind::Crash { node: 1 }));
        assert!(!pause_only.allows(&FaultKind::CrashAmnesia { node: 1 }));
    }
}
