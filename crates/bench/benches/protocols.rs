//! Whole-protocol benchmarks: rounds-per-second of each system under a
//! fixed continuous workload (the engine cost of E8's comparison), plus
//! CONGOS round cost as `n` grows (the engine-side view of E3a).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use congos::CongosNode;
use congos_adversary::{CrriAdversary, NoFailures, PoissonWorkload};
use congos_baselines::{CryptoMulticastNode, DirectNode, StronglyConfidentialNode};
use congos_gossip::GossipNode;
use congos_sim::{Engine, EngineConfig, Protocol, Round};

const DEADLINE: u64 = 64;
const ROUNDS: u64 = 96;

fn drive<P>(n: usize) -> u64
where
    P: Protocol + Send + 'static,
    P::Msg: Send + Sync,
    P::Input: From<congos_adversary::RumorSpec> + Send,
    P::Output: Send,
{
    let workload =
        PoissonWorkload::new(0.05, 3, DEADLINE, 11).until(Round(ROUNDS - DEADLINE / 2));
    let mut adv = CrriAdversary::new(NoFailures, workload);
    let mut engine = Engine::<P>::new(EngineConfig::new(n).seed(0xBE));
    engine.run(ROUNDS, &mut adv);
    engine.metrics().total()
}

fn bench_systems(c: &mut Criterion) {
    let n = 24;
    let mut g = c.benchmark_group("system_execution");
    g.sample_size(10);
    g.bench_function("congos", |b| b.iter(|| black_box(drive::<CongosNode>(n))));
    g.bench_function("epidemic", |b| b.iter(|| black_box(drive::<GossipNode>(n))));
    g.bench_function("direct", |b| b.iter(|| black_box(drive::<DirectNode>(n))));
    g.bench_function("strong", |b| {
        b.iter(|| black_box(drive::<StronglyConfidentialNode>(n)))
    });
    g.bench_function("crypto", |b| {
        b.iter(|| black_box(drive::<CryptoMulticastNode>(n)))
    });
    g.finish();
}

fn bench_congos_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("congos_scaling");
    g.sample_size(10);
    for n in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(drive::<CongosNode>(n)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_systems, bench_congos_scaling);
criterion_main!(benches);
