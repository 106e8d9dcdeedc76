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
//! The harness's TCP route, `RunSpec::net`, is exercised end to end here:
//! the oblivious workload is materialized into a static schedule, the
//! cluster runs over loopback sockets, and QoD is recomputed from topology
//! reachability. Each test case gets its own disjoint port range so the
//! suite can run in parallel.

use std::collections::BTreeSet;

use confidential_gossip::adversary::{NoFailures, PoissonWorkload};
use confidential_gossip::congos::CongosNode;
use confidential_gossip::harness::{run, RunOutcome, RunSpec};
use confidential_gossip::sim::{Round, TopologySpec};

/// Full delivery trace: `(wid, destination, round)`.
fn delivery_trace(out: &RunOutcome) -> BTreeSet<(u64, usize, u64)> {
    out.deliveries
        .iter()
        .map(|d| (d.wid, d.process.as_usize(), d.round.as_u64()))
        .collect()
}

/// Runs the same spec + workload on the engine and on the TCP cluster and
/// checks the traces agree. Returns the trace so callers can assert on it.
fn engine_vs_cluster(
    n: usize,
    seed: u64,
    topology: TopologySpec,
    base_port: u16,
) -> BTreeSet<(u64, usize, u64)> {
    let rounds = 72;
    let mk = || PoissonWorkload::new(0.2, 2, 64, seed * 31).until(Round(rounds - 64));

    let sim = run::<CongosNode, _, _>(
        RunSpec::new(n, seed, rounds).topology(topology),
        NoFailures,
        mk(),
    );
    let net = run::<CongosNode, _, _>(
        RunSpec::new(n, seed, rounds).topology(topology).net(base_port),
        NoFailures,
        mk(),
    );

    assert_eq!(
        sim.injections.len(),
        net.injections.len(),
        "seed {seed} {topology:?}: materialized workload diverges from the engine's"
    );
    // Identical traces imply identical QoD — but QoD is computed by two
    // different code paths (engine liveness vs topology-only), so check it
    // explicitly too.
    assert_eq!(
        sim.qod, net.qod,
        "seed {seed} {topology:?}: QoD classifications diverge"
    );
    assert!(
        sim.qod.on_time > 0,
        "seed {seed} {topology:?}: nothing delivered on time"
    );

    let sim_trace = delivery_trace(&sim);
    let net_trace = delivery_trace(&net);
    assert_eq!(
        sim_trace, net_trace,
        "seed {seed} {topology:?}: TCP cluster and simulator delivery traces diverge"
    );
    assert!(
        !sim_trace.is_empty(),
        "seed {seed} {topology:?}: empty workload proves nothing"
    );

    let stats = net.net.expect("networked run must report socket stats");
    assert!(stats.messages > 0, "seed {seed} {topology:?}: no socket traffic");
    sim_trace
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
    let rounds = 72;
    let spec = RunSpec::new(6, 31, rounds)
        .topology(TopologySpec::Expander { degree: 4 })
        .net(21120);
    let out = run::<CongosNode, _, _>(
        spec,
        NoFailures,
        PoissonWorkload::new(0.2, 2, 64, 977).until(Round(rounds - 64)),
    );
    let stats = out.net.expect("networked run must report socket stats");
    assert!(
        stats.topology_drops > 0,
        "expander cluster should drop off-topology sends, saw {stats:?}"
    );
}
