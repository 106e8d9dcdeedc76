//! One bench group per experiment: each measures a *reduced kernel* of the
//! run that regenerates the corresponding EXPERIMENTS.md table, so
//! regressions in protocol cost show up as bench regressions without
//! re-running the full sweeps. The tables themselves are printed by the
//! `congos-harness` binary (`cargo run --release -p congos-harness --bin
//! exp -- eN`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use congos::{CongosConfig, CongosNode, CoverTrafficConfig, PartitionSet};
use congos_adversary::{NoFailures, PoissonWorkload, RandomChurn, Theorem1Workload};
use congos_baselines::{CryptoMulticastNode, StronglyConfidentialNode};
use congos_harness::run::{run, run_with_factory, RunSpec};
use congos_sim::{EngineBackend, IdSet, ProcessId, Round};

const N: usize = 12;
const DEADLINE: u64 = 64;
const ROUNDS: u64 = 2 * DEADLINE;

fn spec(seed: u64) -> RunSpec {
    RunSpec::new(N, seed, ROUNDS)
}

fn poisson(seed: u64) -> PoissonWorkload {
    PoissonWorkload::new(0.03, 3, DEADLINE, seed).until(Round(ROUNDS - DEADLINE))
}

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment_kernels");
    g.sample_size(10);

    // E1 kernel: strongly confidential gossip under the Theorem-1 workload.
    g.bench_function("e1_strong_theorem1", |b| {
        b.iter(|| {
            black_box(run::<StronglyConfidentialNode, _, _>(
                spec(0xE1),
                NoFailures,
                Theorem1Workload::new(8.0, DEADLINE, 0xE1),
            ))
        })
    });

    // E2/E3 kernel: CONGOS under continuous injection, failure-free.
    g.bench_function("e3_congos_poisson", |b| {
        b.iter(|| black_box(run::<CongosNode, _, _>(spec(0xE3), NoFailures, poisson(0xE3))))
    });

    // E4 kernel: partition construction + coverage queries.
    g.bench_function("e4_partition_coverage", |b| {
        let ps = PartitionSet::random(64, 3, 4.0, 0xE4);
        let survivors = IdSet::from_iter(64, (0..40).map(ProcessId::new));
        b.iter(|| black_box(ps.covering(&survivors)))
    });

    // E5/E6 kernel: collusion-tolerant CONGOS (τ = 2).
    g.bench_function("e6_congos_tau2", |b| {
        b.iter(|| {
            let cfg = CongosConfig::collusion_tolerant(2, 0xE6).without_degenerate_shortcut();
            black_box(run_with_factory::<CongosNode, _, _>(
                spec(0xE6),
                move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
                NoFailures,
                poisson(0xE6),
            ))
        })
    });

    // E7 kernel: CONGOS under churn.
    g.bench_function("e7_congos_churn", |b| {
        b.iter(|| {
            black_box(run::<CongosNode, _, _>(
                spec(0xE7),
                RandomChurn::new(0.005, 0.15, 0xE7),
                poisson(0xE7),
            ))
        })
    });

    // E8 kernel: the crypto-multicast comparator on fresh groups.
    g.bench_function("e8_crypto_fresh_groups", |b| {
        b.iter(|| {
            black_box(run::<CryptoMulticastNode, _, _>(
                spec(0xE8),
                NoFailures,
                poisson(0xE8),
            ))
        })
    });

    // E9 kernel: CONGOS over the deterministic expander substrate.
    g.bench_function("e9_congos_expander", |b| {
        b.iter(|| {
            let cfg = CongosConfig::base()
                .gossip_strategy(congos_gossip::GossipStrategy::Expander);
            black_box(run_with_factory::<CongosNode, _, _>(
                spec(0xE9),
                move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
                NoFailures,
                poisson(0xE9),
            ))
        })
    });

    // E10 kernel: destination hiding (n singleton rumors per injection).
    g.bench_function("e10_congos_dest_hiding", |b| {
        b.iter(|| {
            let cfg = CongosConfig::base().hide_destinations();
            black_box(run_with_factory::<CongosNode, _, _>(
                spec(0xE10),
                move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
                NoFailures,
                poisson(0xE10),
            ))
        })
    });

    // E11 kernel: large payloads through the pipeline (byte metering).
    g.bench_function("e11_congos_large_payloads", |b| {
        b.iter(|| {
            black_box(run::<CongosNode, _, _>(
                spec(0xE11),
                NoFailures,
                poisson(0xE11).data_len(4096),
            ))
        })
    });

    // Cover-traffic kernel (part of E10's story).
    g.bench_function("e10_cover_traffic", |b| {
        b.iter(|| {
            let cfg = CongosConfig::base().cover_traffic(CoverTrafficConfig {
                rate: 0.05,
                data_len: 16,
                deadline: DEADLINE,
            });
            black_box(run_with_factory::<CongosNode, _, _>(
                spec(0xE10C),
                move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
                NoFailures,
                poisson(0xE10C),
            ))
        })
    });

    g.finish();

    // Backend-scaling smoke: the E3 kernel at n = 1024 on each backend. The
    // workload is kept light (≈2 rumors/round on the direct path) so the
    // engine's per-round fan-out over 1024 processes dominates — that is the
    // part the parallel backend shards. Outcomes are bit-identical across
    // backends (tests/differential.rs); only wall clock may differ, and the
    // speedup tracks the host's physical core count.
    let mut g = c.benchmark_group("backend_scaling");
    g.sample_size(10);
    const N_LARGE: usize = 1024;
    for backend in [EngineBackend::Sequential, EngineBackend::parallel_auto()] {
        g.bench_with_input(
            BenchmarkId::new("e3_congos_poisson_n1024", backend),
            &backend,
            |b, &backend| {
                b.iter(|| {
                    let spec = RunSpec::new(N_LARGE, 0xE3, 48).backend(backend);
                    let w = PoissonWorkload::new(2.0 / N_LARGE as f64, 3, 16, 0xE3)
                        .until(Round(32));
                    black_box(run::<CongosNode, _, _>(spec, NoFailures, w))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(kernels, benches);
criterion_main!(kernels);
