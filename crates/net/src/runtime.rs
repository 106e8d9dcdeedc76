//! The bulk-synchronous TCP cluster runtime.
//!
//! Since the `RoundTransport` refactor this module contains **no round
//! logic of its own**: every node is a [`congos_sim::transport::NodeDriver`]
//! — the same per-node superstep the simulator's engine is built on —
//! driving a [`TcpTransport`](crate::transport::TcpTransport). The runtime
//! only wires up sockets, schedules injections and aggregates reports.

use std::io;
use std::net::TcpListener;

use congos::{CongosConfig, CongosInput, CongosNode, DeliveredRumor};
use congos_sim::topology::TopologySpec;
use congos_sim::transport::NodeDriver;
use congos_sim::{OutputRecord, ProcessId, Round, Tag};

use crate::transport::TcpTransport;

/// Configuration of a localhost CONGOS cluster.
#[derive(Clone, Debug)]
pub struct NetConfig {
    n: usize,
    base_port: u16,
    seed: u64,
    rounds: u64,
    congos: CongosConfig,
    topology: TopologySpec,
    watch: Vec<ProcessId>,
}

impl NetConfig {
    /// A cluster of `n` nodes listening on `base_port..base_port+n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the port range would overflow.
    pub fn new(n: usize, base_port: u16) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(
            base_port.checked_add(n as u16).is_some(),
            "port range overflow"
        );
        NetConfig {
            n,
            base_port,
            seed: 0,
            rounds: 1,
            congos: CongosConfig::base(),
            topology: TopologySpec::Complete,
            watch: Vec::new(),
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of rounds.
    pub fn rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// Sets the CONGOS protocol configuration.
    pub fn congos(mut self, cfg: CongosConfig) -> Self {
        self.congos = cfg;
        self
    }

    /// Sets the communication topology. Every node derives the same seeded
    /// edge set from `(topology, n, seed)` as the simulator, and drops
    /// outbound frames for links absent in the current round — the
    /// networked cluster and `sim::engine` deliver over identical graphs.
    ///
    /// # Panics
    ///
    /// Panics if the spec cannot be instantiated over `n` nodes.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        if let Err(e) = topology.validate(self.n) {
            panic!("invalid topology {topology} for n={}: {e}", self.n);
        }
        self.topology = topology;
        self
    }

    /// Marks `members` as observing-coalition nodes: each records the
    /// `(round, sender, tag)` metadata of every envelope delivered to it
    /// (the E13 source-prediction tap). Recording happens after the inbox
    /// is handed to the node and consumes no RNG, so a watched cluster is
    /// bit-identical to an unwatched one.
    pub fn watch(mut self, members: Vec<ProcessId>) -> Self {
        self.watch = members;
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// First port of the cluster's port range.
    pub fn base_port(&self) -> u16 {
        self.base_port
    }

    /// Master seed.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }

    /// Rounds to execute.
    pub fn round_count(&self) -> u64 {
        self.rounds
    }

    /// The configured topology spec.
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
    }
}

/// One node's share of a cluster run.
#[derive(Debug)]
pub struct NodeReport {
    /// The node.
    pub id: ProcessId,
    /// Rumors this node delivered, ordered by round.
    pub deliveries: Vec<OutputRecord<DeliveredRumor>>,
    /// Protocol messages this node shipped over sockets.
    pub messages: u64,
    /// Outbound messages dropped at this node because the topology had no
    /// link that round.
    pub topology_drops: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Delivery metadata `(round, sender, tag)` recorded at this node, if it
    /// was in the watched coalition (empty otherwise).
    pub sightings: Vec<(Round, ProcessId, Tag)>,
}

/// Result of a cluster run.
#[derive(Debug)]
pub struct NetReport {
    /// Every delivered rumor, ordered by `(round, process)`.
    pub deliveries: Vec<OutputRecord<DeliveredRumor>>,
    /// Total protocol messages sent over sockets (excluding round markers
    /// and local self-deliveries).
    pub messages: u64,
    /// Outbound messages dropped at the sender because the topology had no
    /// link to the destination that round (0 on the complete topology).
    pub topology_drops: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Coalition sightings `(round, observer, sender, tag)` across all
    /// watched nodes, sorted by `(round, observer, sender, tag)` — the same
    /// canonical order regardless of thread interleaving.
    pub sightings: Vec<(Round, ProcessId, ProcessId, Tag)>,
}

impl NetReport {
    /// Aggregates per-node reports into a cluster report.
    pub fn aggregate(nodes: impl IntoIterator<Item = NodeReport>) -> Self {
        let mut report = NetReport {
            deliveries: Vec::new(),
            messages: 0,
            topology_drops: 0,
            rounds: 0,
            sightings: Vec::new(),
        };
        for node in nodes {
            report.deliveries.extend(node.deliveries);
            report.messages += node.messages;
            report.topology_drops += node.topology_drops;
            report.rounds = report.rounds.max(node.rounds);
            report
                .sightings
                .extend(node.sightings.into_iter().map(|(r, s, t)| (r, node.id, s, t)));
        }
        report.deliveries.sort_by_key(|o| (o.round, o.process));
        report
            .sightings
            .sort_by_key(|&(r, o, s, t)| (r, o, s, t.name()));
        report
    }
}

/// Drives one node over an already-connected transport: builds the
/// `CongosNode` exactly as the simulator would (same forked seed, same
/// config) and runs the shared superstep loop.
fn drive_node(
    me: ProcessId,
    cfg: &NetConfig,
    mut transport: TcpTransport,
    injections: Vec<(u64, CongosInput)>,
) -> io::Result<NodeReport> {
    let congos_cfg = cfg.congos.clone();
    let mut driver = NodeDriver::<CongosNode>::with_factory(me, cfg.n, cfg.seed, |id, n, _| {
        CongosNode::with_config(id, n, congos_cfg)
    });
    if cfg.watch.contains(&me) {
        driver.record_sightings(true);
    }
    driver.run_rounds(&mut transport, cfg.rounds, injections)?;
    let sightings = driver.take_sightings();
    Ok(NodeReport {
        id: me,
        deliveries: driver.into_outputs(),
        messages: transport.messages(),
        topology_drops: transport.topology_drops(),
        rounds: cfg.rounds,
        sightings,
    })
}

/// Runs a CONGOS cluster over localhost TCP to completion (every node a
/// thread of this process; for true multi-process deployment see
/// [`run_node_process`] and the `congos-node` / `congos-coordinator`
/// binaries).
///
/// `injections` schedules rumors as `(round, process, input)`; at most one
/// injection per process per round (the model's rule).
///
/// # Errors
///
/// Returns any socket-level error (bind, connect, frame, peer loss)
/// encountered while running the cluster, and `InvalidInput` for a schedule
/// with two injections at one `(process, round)` or one past `rounds`.
pub fn run_cluster(
    cfg: NetConfig,
    injections: Vec<(u64, ProcessId, CongosInput)>,
) -> io::Result<NetReport> {
    let n = cfg.n;

    // Bind all listeners up front so dialing cannot race the binds.
    let mut listeners = Vec::with_capacity(n);
    for i in 0..n {
        let l = TcpListener::bind(("127.0.0.1", cfg.base_port + i as u16))?;
        listeners.push(l);
    }

    let mut per_node_inj: Vec<Vec<(u64, CongosInput)>> = (0..n).map(|_| Vec::new()).collect();
    for (round, pid, input) in injections {
        per_node_inj[pid.as_usize()].push((round, input));
    }

    let mut results: Vec<io::Result<NodeReport>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, (listener, my_inj)) in listeners.into_iter().zip(per_node_inj).enumerate() {
            let cfg = &cfg;
            handles.push(scope.spawn(move || {
                let me = ProcessId::new(i);
                let transport = TcpTransport::with_listener(
                    me,
                    cfg.n,
                    cfg.base_port,
                    listener,
                    cfg.topology,
                    cfg.seed,
                )?;
                drive_node(me, cfg, transport, my_inj)
            }));
        }
        for h in handles {
            results.push(h.join().expect("node thread panicked"));
        }
    });

    let mut nodes = Vec::with_capacity(n);
    for res in results {
        nodes.push(res?);
    }
    Ok(NetReport::aggregate(nodes))
}

/// Runs ONE node of a cluster in the calling process — the entry point for
/// true multi-process deployment (see the `congos-node` binary). Blocks
/// until `rounds` complete and returns this node's report.
///
/// # Errors
///
/// Returns socket-level errors (bind, connect, frame, peer loss), and
/// `InvalidInput` for a schedule with two injections in one round or one
/// past `rounds`.
pub fn run_node_process(
    id: usize,
    n: usize,
    base_port: u16,
    rounds: u64,
    seed: u64,
    topology: TopologySpec,
    injections: Vec<(u64, CongosInput)>,
) -> io::Result<NodeReport> {
    let cfg = NetConfig::new(n, base_port)
        .rounds(rounds)
        .seed(seed)
        .topology(topology);
    let me = ProcessId::new(id);
    let transport = TcpTransport::connect(me, n, base_port, topology, seed)?;
    drive_node(me, &cfg, transport, injections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_delivered_over_real_sockets() {
        let report = run_cluster(
            NetConfig::new(4, 18510).rounds(70).seed(3),
            vec![(
                0,
                ProcessId::new(0),
                CongosInput {
                    wid: 0,
                    data: b"tcp".to_vec(),
                    deadline: 64,
                    dest: vec![ProcessId::new(2), ProcessId::new(3)],
                },
            )],
        )
        .expect("cluster run");
        assert_eq!(report.deliveries.len(), 2);
        for d in &report.deliveries {
            assert_eq!(d.value.data, b"tcp".to_vec());
            assert!(d.round.as_u64() <= 64);
        }
        assert!(report.messages > 0);
    }

    #[test]
    fn multiple_sources_and_rounds() {
        let report = run_cluster(
            NetConfig::new(5, 18530).rounds(80).seed(4),
            vec![
                (
                    0,
                    ProcessId::new(0),
                    CongosInput {
                        wid: 0,
                        data: vec![1],
                        deadline: 64,
                        dest: vec![ProcessId::new(4)],
                    },
                ),
                (
                    5,
                    ProcessId::new(1),
                    CongosInput {
                        wid: 1,
                        data: vec![2],
                        deadline: 64,
                        dest: vec![ProcessId::new(3), ProcessId::new(4)],
                    },
                ),
            ],
        )
        .expect("cluster run");
        assert_eq!(report.deliveries.len(), 3);
        let w1: Vec<_> = report
            .deliveries
            .iter()
            .filter(|d| d.value.wid == 1)
            .collect();
        assert_eq!(w1.len(), 2);
        assert!(w1.iter().all(|d| d.round.as_u64() <= 5 + 64));
    }

    #[test]
    fn single_node_cluster() {
        let report = run_cluster(
            NetConfig::new(1, 18550).rounds(4),
            vec![(
                0,
                ProcessId::new(0),
                CongosInput {
                    wid: 0,
                    data: vec![7],
                    deadline: 16,
                    dest: vec![ProcessId::new(0)],
                },
            )],
        )
        .expect("cluster run");
        assert_eq!(report.deliveries.len(), 1);
        assert_eq!(report.messages, 0);
    }
}
