//! Transport-differential testing: the TCP loopback cluster must deliver
//! exactly what the simulator delivers.
//!
//! Both runtimes execute the same `NodeDriver` superstep over the same
//! protocol code with the same per-`(process, generation)` forked RNGs —
//! the only difference is the [`RoundTransport`] underneath (the engine's
//! in-memory delivery path vs framed TCP sockets, polled by one loop per
//! node).
//! So for any failure-free `(seed, topology, injections)` the delivery
//! *traces* — every `(wid, destination, round)` triple — must be
//! bit-identical, not merely the delivery sets.
//!
//! Each case runs an oblivious workload on the engine through
//! `harness::run`, turns the same workload into a static schedule with
//! `materialize_injections`, runs that schedule on a `Cluster` over
//! loopback sockets, and compares the `ClusterReport` with the engine run.
//! Each test case gets its own disjoint port range so the suite can run in
//! parallel.
//!
//! [`RoundTransport`]: confidential_gossip::sim::transport::RoundTransport

use confidential_gossip::adversary::{NoFailures, PoissonWorkload};
use confidential_gossip::congos::{CongosInput, CongosNode};
use confidential_gossip::harness::{materialize_injections, run, Cluster, ClusterReport, RunSpec};
use confidential_gossip::sim::{ProcessId, Round, TopologySpec};

/// Full delivery trace: `(wid, destination, round)`, sorted.
type Trace = Vec<(u64, usize, u64)>;

/// The trace of `deliveries`, each given as `(wid, destination, round)`.
fn trace(deliveries: impl Iterator<Item = (u64, ProcessId, Round)>) -> Trace {
    let mut trace: Trace = deliveries
        .map(|(wid, p, r)| (wid, p.as_usize(), r.as_u64()))
        .collect();
    trace.sort_unstable();
    trace
}

const ROUNDS: u64 = 72;

/// The workload of every case: oblivious, so the engine and the cluster
/// see the same injections.
fn workload(seed: u64) -> PoissonWorkload {
    PoissonWorkload::new(0.2, 2, 64, seed).until(Round(ROUNDS - 64))
}

/// Runs `workload(wseed)` on a cluster of `n` nodes from `base_port`.
fn cluster_run(
    n: usize,
    seed: u64,
    topology: TopologySpec,
    wseed: u64,
    base_port: u16,
) -> (Vec<(u64, ProcessId, CongosInput)>, ClusterReport) {
    let schedule = materialize_injections(n, ROUNDS, &mut workload(wseed));
    let report = Cluster::new(n, base_port)
        .seed(seed)
        .rounds(ROUNDS)
        .topology(topology)
        .run(schedule.clone())
        .unwrap_or_else(|e| panic!("seed {seed} {topology:?}: cluster run failed: {e}"));
    (schedule, report)
}

/// Runs the same workload on the engine and on the TCP cluster and checks
/// the traces agree.
fn engine_vs_cluster(n: usize, seed: u64, topology: TopologySpec, base_port: u16) {
    let spec = RunSpec::new(n, seed, ROUNDS).topology(topology);
    let sim = run::<CongosNode, _, _>(spec, NoFailures, workload(seed * 31));
    let (schedule, net) = cluster_run(n, seed, topology, seed * 31, base_port);

    let injected: Vec<_> = sim
        .injections
        .iter()
        .map(|e| {
            let input = CongosInput::from(e.spec.clone());
            (e.round.as_u64(), e.source, input)
        })
        .collect();
    assert_eq!(
        schedule, injected,
        "seed {seed} {topology:?}: materialized workload diverges from the engine's"
    );
    assert!(
        sim.qod.on_time > 0,
        "seed {seed} {topology:?}: nothing delivered on time"
    );

    let sim_trace = trace(sim.deliveries.iter().map(|d| (d.wid, d.process, d.round)));
    let net_trace = trace(net.deliveries.iter().map(|d| (d.wid, d.process, d.round)));
    assert_eq!(
        sim_trace, net_trace,
        "seed {seed} {topology:?}: TCP cluster and simulator delivery traces diverge"
    );
    assert!(
        !sim_trace.is_empty(),
        "seed {seed} {topology:?}: empty workload proves nothing"
    );
    assert!(
        net.messages > 0,
        "seed {seed} {topology:?}: no socket traffic"
    );
}

#[test]
fn tcp_cluster_matches_simulator_on_complete_graph() {
    for (i, seed) in [31u64, 32, 33].into_iter().enumerate() {
        engine_vs_cluster(4, seed, TopologySpec::Complete, 21000 + 20 * i as u16);
    }
}

#[test]
fn tcp_cluster_matches_simulator_on_expander() {
    // degree 4 needs n >= 5 and n·degree even.
    for (i, seed) in [31u64, 32, 33].into_iter().enumerate() {
        engine_vs_cluster(
            6,
            seed,
            TopologySpec::Expander { degree: 4 },
            21060 + 20 * i as u16,
        );
    }
}

#[test]
fn expander_topology_actually_drops_messages_over_sockets() {
    // Sanity that the sparse topology is enforced on the socket path too:
    // a 4-regular graph on 6 nodes must censor some pairs in some round.
    let topology = TopologySpec::Expander { degree: 4 };
    let (_, report) = cluster_run(6, 31, topology, 977, 21120);
    assert!(
        report.topology_drops > 0,
        "expander cluster should drop off-topology sends, saw {}",
        report.topology_drops
    );
}
