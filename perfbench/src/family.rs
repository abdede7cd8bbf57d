//! What the benchmark reads from each protocol family through its public
//! functions, beyond the [`SimHosted`] surface.

use qrdtm_core::{Cluster, ObjVal, ObjectId, SimHosted};
use qrdtm_qstore::QStoreCluster;
use qrdtm_sim::WheelStats;

/// Counters the family never resets; the window reports their growth.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lifetime {
    /// Event-queue telemetry of the simulator.
    pub queue: WheelStats,
    /// `(WAL records, WAL fsyncs)` across all replicas.
    pub wal: (u64, u64),
}

/// A simulator-hosted protocol family the benchmark measures.
pub trait Family: SimHosted {
    /// Message-class names, indexed by `SimMessage::class`.
    const CLASSES: &'static [&'static str];

    /// Snapshot of the never-reset counters.
    fn lifetime(&self) -> Lifetime {
        Lifetime {
            queue: self.sim().metrics().queue,
            wal: (0, 0),
        }
    }

    /// Newest committed value of an integer object.
    fn balance(&self, oid: ObjectId) -> Option<i64>;
}

fn int(v: Option<(qrdtm_core::Version, ObjVal)>) -> Option<i64> {
    match v?.1 {
        ObjVal::Int(x) => Some(x),
        _ => None,
    }
}

impl Family for Cluster {
    const CLASSES: &'static [&'static str] = &[
        "read_req",
        "read_resp",
        "commit_req",
        "vote",
        "apply",
        "abort_req",
        "ack",
    ];

    fn balance(&self, oid: ObjectId) -> Option<i64> {
        int(self.latest(oid))
    }
}

impl Family for QStoreCluster {
    const CLASSES: &'static [&'static str] = &[
        "read_req",
        "read_resp",
        "submit",
        "submit_ack",
        "speculate",
        "apply_batch",
        "apply_ack",
    ];

    fn lifetime(&self) -> Lifetime {
        Lifetime {
            queue: self.sim().metrics().queue,
            wal: self.wal_totals(),
        }
    }

    fn balance(&self, oid: ObjectId) -> Option<i64> {
        int(self.latest(oid))
    }
}
