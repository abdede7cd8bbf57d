//! The shared crash / recover / crash-with-amnesia verbs on both
//! fault-tolerant families, down the oracle path (no detector in the
//! config) and the sim-only path (a detector armed, none running).

use std::rc::Rc;

use qrdtm_chaos::ChaosTarget;
use qrdtm_core::membership::{crash, crash_amnesia, recover};
use qrdtm_core::{Cluster, DetectorConfig, DtmConfig, DurabilityConfig, ObjVal, ObjectId};
use qrdtm_qstore::{QStoreCluster, QStoreConfig};
use qrdtm_sim::{NodeId, SimDuration};
use qrdtm_workloads::protocol_bank::transfer;

const NODES: u32 = 10;

/// One transfer from each of nodes 0-3, run to quiescence.
fn transfers<P: ChaosTarget + 'static>(p: &Rc<P>) {
    for n in 0..4u32 {
        let p2 = Rc::clone(p);
        let (from, to) = (ObjectId(u64::from(n)), ObjectId(u64::from(n + 1) % 4));
        p.sim()
            .spawn(async move { transfer(&*p2, NodeId(n), from, to, 1).await });
    }
    p.sim().run();
}

/// Drive every verb on `p`. `spare` (≥ 4) must be a node no quorum needs.
fn exercise<P: ChaosTarget + 'static>(label: &str, p: Rc<P>, spare: NodeId) {
    (0..4).for_each(|i| p.preload(ObjectId(i), ObjVal::Int(100)));
    let m = Rc::clone(&p).membership().expect("fault-tolerant family");
    let sim = p.sim().clone();
    transfers(&p);

    // The config picks the path: the oracle repairs the view at once, the
    // sim-only path leaves it to the detector.
    assert!(crash(&*m, spare), "{label}");
    assert!(!sim.is_alive(spare), "{label}");
    assert_eq!(
        m.view_alive(spare),
        m.detector_config().is_some(),
        "{label}"
    );
    assert!(recover(&*m, spare) && m.view_alive(spare), "{label}");

    // A crash the survivors' quorums could not absorb is refused.
    let mut down = Vec::new();
    let refused = (1..NODES).rev().map(NodeId).find(|&n| {
        let ok = crash(&*m, n);
        down.extend(ok.then_some(n));
        !ok
    });
    let refused = refused.unwrap_or_else(|| panic!("{label}: nothing refused"));
    assert!(!down.is_empty(), "{label}");
    assert!(sim.is_alive(refused) && m.view_alive(refused), "{label}");
    down.iter()
        .for_each(|&n| assert!(recover(&*m, n), "{label}"));
    sim.run();

    // An amnesiac replays and repairs before it serves. Sim-only the view
    // never ejected it, so the recover verb readmits it itself.
    let before = sim.metrics();
    assert!(crash_amnesia(&*m, spare) && m.lost_state(spare), "{label}");
    transfers(&p);
    assert!(recover(&*m, spare) && !m.lost_state(spare), "{label}");
    sim.run();
    let after = sim.metrics();
    assert!(after.log_replays > before.log_replays, "{label}");
    assert!(after.repaired_objects > before.repaired_objects, "{label}");
    let total: i64 = (0..4).map(|i| p.committed_int(ObjectId(i)).unwrap()).sum();
    assert_eq!(total, 400, "{label}");
}

#[test]
fn shared_verbs_take_the_path_the_config_picks_on_both_families() {
    for detector in [None, Some(DetectorConfig::default())] {
        let durability = Some(DurabilityConfig::default());
        let qr = Rc::new(Cluster::new(DtmConfig {
            nodes: NODES as usize,
            rpc_timeout: Some(SimDuration::from_millis(100)),
            detector,
            durability,
            ..Default::default()
        }));
        let spare = (4..NODES)
            .map(NodeId)
            .find(|n| !qr.read_quorum().contains(n) && !qr.write_quorum().contains(n))
            .expect("a node outside both quorums");
        exercise("qr", qr, spare);
        let qstore = QStoreConfig {
            nodes: NODES as usize,
            detector,
            durability,
            ..Default::default()
        };
        exercise("qstore", Rc::new(QStoreCluster::new(qstore)), NodeId(9));
    }
}
