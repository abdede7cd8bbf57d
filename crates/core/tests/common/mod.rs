//! Bank workload helpers shared by the detector and durability tests.

use std::rc::Rc;

use qrdtm_core::{Cluster, ObjVal, ObjectId};
use qrdtm_sim::{NodeId, SimDuration};

/// Preload `accounts` accounts of 1000 each.
pub fn bank_accounts(cluster: &Cluster, accounts: u32) {
    for a in 0..accounts {
        cluster.preload(ObjectId(u64::from(a)), ObjVal::Int(1000));
    }
}

/// Three closed-loop clients (nodes 3-5) moving 10 between neighbouring
/// accounts until `until` has passed.
pub fn spawn_bank_clients(cluster: &Rc<Cluster>, accounts: u32, until: SimDuration) {
    for c in 0..3u32 {
        let client = cluster.client(NodeId(3 + c));
        let sim = cluster.sim().clone();
        let deadline = sim.now() + until;
        cluster.sim().spawn(async move {
            let mut i = c;
            while sim.now() < deadline {
                let from = ObjectId(u64::from(i % accounts));
                let to = ObjectId(u64::from((i + 1) % accounts));
                i += 1;
                if from == to {
                    continue;
                }
                client
                    .run(|tx| async move {
                        let a = tx.read(from).await?.expect_int();
                        let b = tx.read(to).await?.expect_int();
                        tx.write(from, ObjVal::Int(a - 10)).await?;
                        tx.write(to, ObjVal::Int(b + 10)).await?;
                        Ok(())
                    })
                    .await;
            }
        });
    }
}

/// The committed balances summed over `accounts` accounts.
pub fn total_balance(cluster: &Cluster, accounts: u32) -> i64 {
    (0..accounts)
        .map(|a| {
            cluster
                .latest(ObjectId(u64::from(a)))
                .unwrap()
                .1
                .expect_int()
        })
        .sum()
}
