//! The unified Fig. 9 bank driver: one closed-loop workload, generic over
//! [`DtmProtocol`].
//!
//! Section VI-D of the paper compares QR-DTM, HyFlow (TFA) and Decent-STM
//! on the Bank benchmark. Each protocol used to carry its own hand-wired
//! driver loop; with the [`DtmProtocol`] trait there is exactly one
//! closed-loop client, [`spawn_bank_clients`], which [`run_bank`] and the
//! chaos nemesis both drive. Callers only assemble the cluster. Every
//! client draws the same account/mix stream from the protocol's own
//! simulator RNG, so runs stay deterministic per seed.

use std::cell::Cell;
use std::rc::Rc;

use qrdtm_core::{DtmProtocol, ObjVal, ObjectId, SimHosted};
use qrdtm_sim::{NodeId, SimDuration};

/// Fig. 9 bank workload shape.
#[derive(Clone, Copy, Debug)]
pub struct BankSpec {
    /// Number of account objects.
    pub accounts: u64,
    /// Percentage of read-only audits.
    pub read_pct: u32,
    /// Warm-up window.
    pub warmup: SimDuration,
    /// Measurement window.
    pub duration: SimDuration,
    /// Closed-loop clients per node.
    pub clients_per_node: usize,
}

impl Default for BankSpec {
    fn default() -> Self {
        BankSpec {
            accounts: 32,
            read_pct: 50,
            warmup: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(20),
            clients_per_node: 1,
        }
    }
}

/// Measured outcome of a bank run.
#[derive(Clone, Debug)]
pub struct BankRunResult {
    /// Committed transactions per virtual second.
    pub throughput: f64,
    /// Committed transactions in the window.
    pub commits: u64,
    /// Aborted attempts in the window.
    pub aborts: u64,
    /// Messages sent in the window.
    pub messages: u64,
}

/// Transfer `amount` between two accounts, retrying until it commits.
pub async fn transfer<P: DtmProtocol>(
    p: &P,
    node: NodeId,
    from: ObjectId,
    to: ObjectId,
    amount: i64,
) {
    let mut h = p.begin(node);
    loop {
        let r = async {
            let a = p.read(&mut h, from).await?.expect_int();
            let b = p.read(&mut h, to).await?.expect_int();
            p.write(&mut h, from, ObjVal::Int(a - amount)).await?;
            p.write(&mut h, to, ObjVal::Int(b + amount)).await?;
            p.commit(&mut h).await
        }
        .await;
        match r {
            Ok(()) => return,
            Err(e) => p.restart(&mut h, e).await,
        }
    }
}

/// Read-only audit of two accounts, retrying until it commits.
pub async fn audit<P: DtmProtocol>(p: &P, node: NodeId, a: ObjectId, b: ObjectId) -> i64 {
    let mut h = p.begin(node);
    loop {
        let r = async {
            let va = p.read(&mut h, a).await?.expect_int();
            let vb = p.read(&mut h, b).await?.expect_int();
            p.commit(&mut h).await.map(|()| va + vb)
        }
        .await;
        match r {
            Ok(sum) => return sum,
            Err(e) => p.restart(&mut h, e).await,
        }
    }
}

/// Spawn `spec.clients_per_node` closed-loop bank clients on each of
/// `nodes` nodes. Each client draws two distinct accounts and then the
/// read/write mix from the simulator RNG, runs an [`audit`] or a
/// [`transfer`], and repeats until `stop` is set. A client whose node is
/// down idles in steps of `idle` until the node comes back, since a
/// crashed node runs no workload. Only the mix fields of `spec` are read.
pub fn spawn_bank_clients<P: SimHosted + 'static>(
    proto: &Rc<P>,
    nodes: usize,
    spec: &BankSpec,
    idle: SimDuration,
    stop: Rc<Cell<bool>>,
) {
    let sim = proto.sim().clone();
    for node in 0..nodes as u32 {
        for _ in 0..spec.clients_per_node {
            let p = Rc::clone(proto);
            let stop = Rc::clone(&stop);
            let s = sim.clone();
            let spec = *spec;
            sim.spawn(async move {
                while !stop.get() {
                    if !s.is_alive(NodeId(node)) {
                        s.sleep(idle).await;
                        continue;
                    }
                    let a = s.rand_below(spec.accounts);
                    let mut b = s.rand_below(spec.accounts);
                    if b == a {
                        b = (b + 1) % spec.accounts;
                    }
                    if s.rand_below(100) < u64::from(spec.read_pct) {
                        audit(&*p, NodeId(node), ObjectId(a), ObjectId(b)).await;
                    } else {
                        transfer(&*p, NodeId(node), ObjectId(a), ObjectId(b), 5).await;
                    }
                }
            });
        }
    }
}

/// Run the closed-loop bank mix on any simulator-hosted [`DtmProtocol`]
/// cluster with `nodes` nodes: warm up, reset counters, measure for
/// `spec.duration`. (The closed loop spawns simulator tasks and pumps
/// virtual time, hence the [`SimHosted`] bound; the threaded backend has
/// its own closed-loop driver in `qrdtm-par`, reusing [`transfer`] and
/// [`audit`] which only need [`DtmProtocol`].)
pub fn run_bank<P: SimHosted + 'static>(
    proto: Rc<P>,
    nodes: usize,
    spec: &BankSpec,
) -> BankRunResult {
    for i in 0..spec.accounts {
        proto.preload(ObjectId(i), ObjVal::Int(1_000));
    }
    let sim = proto.sim().clone();
    // The clients run for the whole measurement, so `stop` is never set,
    // and no node fails, so the idle step is never taken.
    let stop = Rc::new(Cell::new(false));
    spawn_bank_clients(&proto, nodes, spec, SimDuration::from_millis(200), stop);
    sim.run_for(spec.warmup);
    proto.reset_protocol_stats();
    sim.reset_metrics();
    sim.run_for(spec.duration);
    let st = proto.protocol_stats();
    BankRunResult {
        throughput: st.commits as f64 / spec.duration.as_secs_f64(),
        commits: st.commits,
        aborts: st.aborts,
        messages: sim.metrics().sent_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
    use qrdtm_core::{Cluster, DtmConfig};
    use qrdtm_qstore::{QStoreCluster, QStoreConfig};

    fn quick() -> BankSpec {
        BankSpec {
            accounts: 16,
            read_pct: 50,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(5),
            clients_per_node: 1,
        }
    }

    /// The quick bank mix on `cluster`, which has `nodes` nodes.
    fn bank<P: SimHosted + 'static>(cluster: P, nodes: usize) -> BankRunResult {
        run_bank(Rc::new(cluster), nodes, &quick())
    }

    #[test]
    fn qr_bank_commits() {
        let cfg = DtmConfig {
            nodes: 10,
            seed: 3,
            ..Default::default()
        };
        let r = bank(Cluster::new(cfg), 10);
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_bank_commits() {
        let cfg = TfaConfig {
            nodes: 10,
            seed: 3,
            ..Default::default()
        };
        let r = bank(TfaCluster::new(cfg), 10);
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn decent_bank_commits() {
        let cfg = DecentConfig {
            nodes: 10,
            seed: 3,
            ..Default::default()
        };
        assert!(bank(DecentCluster::new(cfg), 10).commits > 0);
    }

    #[test]
    fn qstore_bank_commits() {
        let cfg = QStoreConfig {
            nodes: 10,
            seed: 3,
            ..Default::default()
        };
        let r = bank(QStoreCluster::new(cfg), 10);
        assert!(r.commits > 0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn tfa_outpaces_decent_on_the_same_workload() {
        // The paper's Fig. 9 ordering (HyFlow > Decent-STM) should hold for
        // any reasonable window: unicast 5 ms RTTs against multicast
        // consensus at 30 ms RTTs.
        let t = bank(
            TfaCluster::new(TfaConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            }),
            10,
        );
        let d = bank(
            DecentCluster::new(DecentConfig {
                nodes: 10,
                seed: 5,
                ..Default::default()
            }),
            10,
        );
        assert!(
            t.throughput > d.throughput,
            "TFA {} <= Decent {}",
            t.throughput,
            d.throughput
        );
    }

    #[test]
    fn bank_runs_are_deterministic() {
        let tfa = || {
            bank(
                TfaCluster::new(TfaConfig::default()),
                TfaConfig::default().nodes,
            )
        };
        let qr = || {
            bank(
                Cluster::new(DtmConfig::default()),
                DtmConfig::default().nodes,
            )
        };
        for (a, b) in [(tfa(), tfa()), (qr(), qr())] {
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.messages, b.messages);
        }
    }
}
