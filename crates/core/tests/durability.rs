//! Integration tests for the durable-replica model: write-ahead logging,
//! crash-restart-with-amnesia, torn-tail detection, and quorum repair.

use std::rc::Rc;

use qrdtm_core::membership::{crash_amnesia, recover};
use qrdtm_core::{
    Cluster, DetectorConfig, DtmConfig, DurabilityConfig, Membership, ObjVal, ObjectId,
};
use qrdtm_sim::{NodeId, SimDuration};

mod common;
use common::{bank_accounts, spawn_bank_clients, total_balance};

fn durable_cfg(seed: u64) -> DtmConfig {
    DtmConfig {
        seed,
        rpc_timeout: Some(SimDuration::from_millis(100)),
        durability: Some(DurabilityConfig::default()),
        ..Default::default()
    }
}

const ACCOUNTS: u32 = 8;
const TOTAL: i64 = 1000 * ACCOUNTS as i64;

/// Right after readmission (before any further commit lands) the
/// recovered node must hold the max-version committed copy of every
/// object — replay+repair plus the view-change refresh guarantee it.
fn assert_caught_up(cluster: &Cluster, node: NodeId) {
    for a in 0..ACCOUNTS {
        let oid = ObjectId(u64::from(a));
        let latest = cluster.latest(oid).unwrap();
        let mine = cluster
            .peek(node, oid)
            .expect("recovered replica holds object");
        assert_eq!(mine, latest, "recovered node lags on {oid:?}");
    }
}

#[test]
fn amnesia_crash_recovers_via_replay_and_quorum_repair() {
    let cluster = Rc::new(Cluster::new(durable_cfg(11)));
    bank_accounts(&cluster, ACCOUNTS);
    cluster.enable_history();
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, ACCOUNTS, SimDuration::from_secs(3));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(800)).await;
        assert!(crash_amnesia(&*cl, victim));
        assert!(
            cl.peek(victim, ObjectId(0)).is_none(),
            "amnesia wipes the volatile object table"
        );
        // Let commits the victim will have to repair happen while it is down.
        sim2.sleep(SimDuration::from_millis(1000)).await;
        cl.recover_node(victim).unwrap();
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(2)); // drain client retries

    let m = sim.metrics();
    assert!(m.log_replays >= 1, "restart replayed the WAL");
    assert!(m.repair_rounds >= 1, "restart ran quorum repair");
    assert!(
        m.repaired_objects >= 1,
        "commits during the outage had to be repaired"
    );
    assert!(m.repair_bytes > 0);
    assert_eq!(total_balance(&cluster, ACCOUNTS), TOTAL);
    assert!(cluster.verify_history().is_empty(), "serializable");
}

#[test]
fn corrupt_tail_is_detected_and_repaired_on_restart() {
    let cluster = Rc::new(Cluster::new(durable_cfg(12)));
    bank_accounts(&cluster, ACCOUNTS);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, ACCOUNTS, SimDuration::from_secs(2));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(700)).await;
        assert!(
            cl.corrupt_wal_tail(victim, 2),
            "durable log had records to corrupt"
        );
        assert!(crash_amnesia(&*cl, victim));
        sim2.sleep(SimDuration::from_millis(600)).await;
        cl.recover_node(victim).unwrap();
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    assert!(m.torn_tails >= 1, "the tear was detected at replay");
    assert!(m.log_replays >= 1);
    assert_eq!(total_balance(&cluster, ACCOUNTS), TOTAL);
}

#[test]
fn sim_only_amnesia_rejoins_through_the_shared_readmit_path() {
    // The detector flavour: with a detector configured the crash verb
    // kills the network and loses the state but tells the quorum view
    // nothing; ejection and readmission go through the eject/rejoin
    // hooks, which must run the same honest recovery.
    let cluster = Rc::new(Cluster::new(DtmConfig {
        detector: Some(DetectorConfig::default()),
        ..durable_cfg(13)
    }));
    bank_accounts(&cluster, ACCOUNTS);
    let sim = cluster.sim().clone();
    spawn_bank_clients(&cluster, ACCOUNTS, SimDuration::from_secs(2));

    let victim = cluster.read_quorum()[0];
    let cl = Rc::clone(&cluster);
    let sim2 = sim.clone();
    sim.spawn(async move {
        sim2.sleep(SimDuration::from_millis(600)).await;
        assert!(crash_amnesia(&*cl, victim));
        assert!(cl.view_alive(victim), "the sim-only crash leaves the view");
        assert!(cl.eject(victim));
        sim2.sleep(SimDuration::from_millis(600)).await;
        assert!(recover(&*cl, victim));
        let charged = cl.rejoin(victim).unwrap();
        assert!(
            charged > SimDuration::ZERO,
            "amnesiac rejoin charges replay + repair time"
        );
        assert_caught_up(&cl, victim);
    });
    sim.run_for(SimDuration::from_secs(2));
    sim.run_for(SimDuration::from_secs(2));

    let m = sim.metrics();
    assert!(m.log_replays >= 1, "rejoin ran the honest recovery");
    assert!(m.repair_rounds >= 1);
    assert_eq!(total_balance(&cluster, ACCOUNTS), TOTAL);
}

#[test]
fn durable_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let cluster = Rc::new(Cluster::new(durable_cfg(seed)));
        bank_accounts(&cluster, ACCOUNTS);
        let sim = cluster.sim().clone();
        spawn_bank_clients(&cluster, ACCOUNTS, SimDuration::from_secs(2));
        let victim = cluster.read_quorum()[0];
        let cl = Rc::clone(&cluster);
        let sim2 = sim.clone();
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(500)).await;
            assert!(crash_amnesia(&*cl, victim));
            sim2.sleep(SimDuration::from_millis(700)).await;
            cl.recover_node(victim).unwrap();
        });
        sim.run_for(SimDuration::from_secs(2));
        sim.run_for(SimDuration::from_secs(2));
        let m = sim.metrics();
        (
            sim.now().as_nanos(),
            m.sent_total,
            m.log_replays,
            m.repaired_objects,
            m.repair_bytes,
            total_balance(&cluster, ACCOUNTS),
        )
    };
    assert_eq!(run(21), run(21), "same seed, same trace");
    assert_ne!(run(21), run(22), "seed perturbs the trace");
}

#[test]
#[should_panic(expected = "requires DtmConfig::durability")]
fn amnesia_without_durability_panics() {
    let cluster = Cluster::new(DtmConfig::default());
    cluster.preload(ObjectId(0), ObjVal::Int(1));
    let _ = crash_amnesia(&cluster, NodeId(1));
}
