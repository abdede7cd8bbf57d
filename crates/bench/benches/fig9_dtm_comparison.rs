//! Criterion bench for Fig. 9 (QR-DTM vs HyFlow vs Decent-STM on Bank):
//! samples each protocol at the 50/50 mix. Run `repro fig9` for the full
//! node sweep at both mixes.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use qrdtm_baselines::{DecentCluster, DecentConfig, TfaCluster, TfaConfig};
use qrdtm_bench::quick;
use qrdtm_core::{Cluster, NestingMode};
use qrdtm_sim::SimDuration;
use qrdtm_workloads::{run_bank, BankSpec};

fn bank_spec() -> BankSpec {
    BankSpec {
        accounts: 48,
        read_pct: 50,
        warmup: SimDuration::from_millis(500),
        duration: SimDuration::from_secs(2),
        clients_per_node: 1,
    }
}

fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_dtm_comparison");
    g.sample_size(10);
    g.bench_function("qr_dtm", |b| {
        b.iter(|| {
            let cfg = quick::cfg(NestingMode::Flat);
            let nodes = cfg.nodes;
            run_bank(Rc::new(Cluster::new(cfg)), nodes, &bank_spec())
        })
    });
    g.bench_function("hyflow_tfa", |b| {
        b.iter(|| {
            let cfg = TfaConfig {
                nodes: 13,
                seed: 42,
                ..Default::default()
            };
            run_bank(Rc::new(TfaCluster::new(cfg)), 13, &bank_spec())
        })
    });
    g.bench_function("decent_stm", |b| {
        b.iter(|| {
            let cfg = DecentConfig {
                nodes: 13,
                seed: 42,
                ..Default::default()
            };
            run_bank(Rc::new(DecentCluster::new(cfg)), 13, &bank_spec())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
