//! Launching a CONGOS cluster over localhost TCP.
//!
//! A [`Cluster`] is the one way to run a workload over TCP: it starts `n`
//! [`NodeDriver`]s over [`TcpTransport`]s, validates its parameters and
//! injection schedule, binds the listeners, splits the schedule per node
//! and merges the per-node [`ClusterReport`]s. [`Cluster::run`] runs every
//! node as a thread of this process; [`Cluster::run_node`] runs one, as
//! each process of the `congos-node` binary does. Every node is audited for
//! confidentiality (Definition 2) as it runs, and fails on the first
//! violation.
//!
//! The engine feeds adversary plans a live [`RoundView`] every round; a TCP
//! cluster cannot (nodes are independent processes/threads with no
//! lock-step oracle). The bridge is *materialization*:
//! [`materialize_injections`] dry-runs the injection plan against a
//! synthetic failure-free view — every process alive, outboxes unseen — to
//! extract a static `(round, source, input)` schedule for the cluster.
//!
//! Materialization is faithful exactly for **oblivious** workloads: plans
//! that decide from `(round, rng)` alone, like the stock `OneShot` /
//! `PoissonWorkload` / `Theorem1Workload` generators. A plan that adapts to
//! `view.outbox` or to crashes would see a different trajectory. A cluster
//! takes an injection schedule and nothing else, so no failure plan can
//! reach it: it is failure-free by construction (an adaptive adversary must
//! see a round's outboxes before anything is delivered — a lock-step
//! construct no socket runtime can offer).

use std::io;
use std::net::TcpListener;
use std::ops::Range;

use congos::{ConfidentialityAuditor, CongosConfig, CongosInput, CongosNode};
use congos_adversary::predict::{CoalitionTap, Sighting};
use congos_adversary::{InjectionPlan, RumorSpec};
use congos_net::{TcpTransport, WireStats};
use congos_sim::transport::{split_schedule, NodeDriver};
use congos_sim::{Observer, OutboxView, ProcessId, Round, RoundView, TopologySpec};

use crate::Json;

/// Dry-runs `workload` for `rounds` rounds against a synthetic
/// failure-free view (all `n` processes alive, no outbox visibility) and
/// returns the static injection schedule it produces, each spec converted
/// into the protocol's input (`CongosInput` for [`Cluster::run`]).
pub fn materialize_injections<I: From<RumorSpec>, W: InjectionPlan>(
    n: usize,
    rounds: u64,
    workload: &mut W,
) -> Vec<(u64, ProcessId, I)> {
    let alive = vec![true; n];
    let mut schedule = Vec::new();
    for r in 0..rounds {
        let view = RoundView {
            round: Round(r),
            alive: &alive,
            outbox: OutboxView::default(),
        };
        for (source, spec) in workload.decide_injections(&view) {
            schedule.push((r, source, I::from(spec)));
        }
    }
    schedule
}

/// A localhost CONGOS cluster: node `i` listens on `base_port + i`.
#[derive(Clone, Debug)]
pub struct Cluster {
    n: usize,
    base_port: u16,
    seed: u64,
    rounds: u64,
    congos: CongosConfig,
    topology: TopologySpec,
    watch: Vec<ProcessId>,
}

impl Cluster {
    /// A cluster of `n` nodes on ports `base_port..base_port + n`: one
    /// round of `CongosConfig::base()` on the complete topology with seed 0
    /// until set otherwise. Nothing is checked before a run (see
    /// [`validate`](Self::validate)).
    pub fn new(n: usize, base_port: u16) -> Self {
        Cluster {
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
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }

    /// Marks `members` as observing-coalition nodes: the E13 source-prediction
    /// tap observing each of them logs the `(round, sender, tag)` metadata of
    /// every envelope delivered to it. An observer consumes no RNG and
    /// changes no protocol state, so a watched cluster is bit-identical to
    /// an unwatched one.
    pub fn watch(mut self, members: Vec<ProcessId>) -> Self {
        self.watch = members;
        self
    }

    /// Checks the cluster's parameters, and node `id` against them when
    /// given. [`run`](Self::run) and [`run_node`](Self::run_node) call it
    /// before binding anything.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, naming the value, for `n = 0`, a port range past
    /// 65 535, a topology that cannot be built over `n` nodes, or `id ≥ n`.
    pub fn validate(&self, id: Option<usize>) -> io::Result<()> {
        let (n, base) = (self.n, self.base_port);
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if n == 0 {
            return invalid("a cluster needs at least one node, got n = 0".into());
        }
        if base as usize + n - 1 > u16::MAX as usize {
            return invalid(format!("base port {base} + n = {n} runs past port 65535"));
        }
        if let Err(e) = self.topology.validate(n) {
            return invalid(format!(
                "topology {} is infeasible for n = {n}: {e}",
                self.topology
            ));
        }
        match id {
            Some(id) if id >= n => invalid(format!("node id {id} is out of range for n = {n}")),
            _ => Ok(()),
        }
    }

    /// Runs the cluster to completion, every node a thread of this process.
    /// `injections` schedules rumors as `(round, source, input)`, at most
    /// one per source per round (the model's rule).
    ///
    /// # Errors
    ///
    /// [`validate`](Self::validate)'s errors; `InvalidInput`, naming the
    /// entry, for a source or destination outside the cluster, two
    /// injections at one `(source, round)` or one past `rounds`; otherwise
    /// the first failing node's socket error (bind, connect, frame, peer
    /// loss) or the first violation its confidentiality auditor found,
    /// naming the node.
    pub fn run(&self, injections: Vec<(u64, ProcessId, CongosInput)>) -> io::Result<ClusterReport> {
        self.validate(None)?;
        let schedules = self.schedules(&injections)?;
        let listeners = self.bind(0..self.n)?;
        let injections = &injections;
        let reports = std::thread::scope(|scope| {
            let nodes: Vec<_> = listeners
                .into_iter()
                .zip(schedules)
                .enumerate()
                .map(|(i, (listener, schedule))| {
                    scope.spawn(move || {
                        self.drive(ProcessId::new(i), listener, schedule, injections)
                    })
                })
                .collect();
            nodes
                .into_iter()
                .map(|node| node.join().expect("node thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        Ok(ClusterReport::merge(reports))
    }

    /// Runs node `id` of the cluster in this process and returns its share
    /// of the report. `injections` is the whole cluster's schedule; the node
    /// makes the injections whose source it is.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), for this node.
    pub fn run_node(
        &self,
        id: usize,
        injections: Vec<(u64, ProcessId, CongosInput)>,
    ) -> io::Result<ClusterReport> {
        self.validate(Some(id))?;
        let schedule = self.schedules(&injections)?.swap_remove(id);
        let listener = self.bind(id..id + 1)?.remove(0);
        self.drive(ProcessId::new(id), listener, schedule, &injections)
    }

    /// Splits the cluster's `injections` into one schedule per node.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, naming the entry, for a source or destination
    /// outside the cluster.
    fn schedules(
        &self,
        injections: &[(u64, ProcessId, CongosInput)],
    ) -> io::Result<Vec<Vec<(u64, CongosInput)>>> {
        let n = self.n;
        for (round, source, input) in injections {
            if let Some(d) = input.dest.iter().find(|d| d.as_usize() >= n) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "injection {} at {source} in round {round} names destination {d}, \
                         outside the {n}-process cluster",
                        input.wid
                    ),
                ));
            }
        }
        split_schedule(n, injections.to_vec())
    }

    /// Binds the listeners of nodes `ids`, so that no node dials a peer
    /// whose listener does not exist yet. [`validate`](Self::validate) has
    /// kept every port of the range within `u16`.
    fn bind(&self, ids: Range<usize>) -> io::Result<Vec<TcpListener>> {
        ids.map(|i| {
            let port = self.base_port + i as u16;
            TcpListener::bind(("127.0.0.1", port)).map_err(|e| {
                io::Error::new(e.kind(), format!("node {i}: bind 127.0.0.1:{port}: {e}"))
            })
        })
        .collect()
    }

    /// Drives node `me` over a transport on `listener`: builds the
    /// `CongosNode` exactly as the simulator would (same forked seed, same
    /// config) and runs the shared superstep loop, making the node's own
    /// `schedule` of the cluster's `injections`.
    ///
    /// The node runs watched by the E13 tap and by a confidentiality
    /// auditor. The auditor is told every injection of the cluster before
    /// round 0, so a delivery is checked against its rumor's destinations
    /// and data at the delivering node, not only at the source.
    fn drive(
        &self,
        me: ProcessId,
        listener: TcpListener,
        schedule: Vec<(u64, CongosInput)>,
        injections: &[(u64, ProcessId, CongosInput)],
    ) -> io::Result<ClusterReport> {
        let (n, seed) = (self.n, self.seed);
        let mut transport =
            TcpTransport::with_listener(me, n, self.base_port, listener, self.topology, seed)?;
        let congos = self.congos.clone();
        let mut driver = NodeDriver::<CongosNode>::with_factory(me, n, seed, |id, n, _| {
            CongosNode::with_config(id, n, congos)
        });
        let mut audit = ConfidentialityAuditor::new(n);
        for (round, source, input) in injections {
            Observer::<CongosNode>::on_inject(&mut audit, Round(*round), *source, input);
        }
        let mut watchers = (CoalitionTap::new(n, &self.watch), audit);
        driver.run_rounds(&mut transport, self.rounds, schedule, &mut watchers)?;
        let (tap, audit) = watchers;
        audit_verdict(me, &audit)?;
        let deliveries = driver.into_outputs().into_iter();
        Ok(ClusterReport {
            deliveries: deliveries
                .map(|o| Delivery {
                    wid: o.value.wid,
                    process: o.process,
                    round: o.round,
                    data: o.value.data,
                })
                .collect(),
            messages: transport.messages(),
            topology_drops: transport.topology_drops(),
            wire: transport.wire_stats(),
            rounds: self.rounds,
            sightings: tap.log().iter().copied().collect(),
        })
    }
}

/// An error naming node `me` and the first violation `audit` found, if any.
fn audit_verdict(me: ProcessId, audit: &ConfidentialityAuditor) -> io::Result<()> {
    match audit.report().violations.as_slice() {
        [] => Ok(()),
        [first, ..] => Err(io::Error::other(format!(
            "node {}: confidentiality audit failed: {first:?} (of {} violations)",
            me.as_usize(),
            audit.report().violations.len()
        ))),
    }
}

/// One delivered rumor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Workload id.
    pub wid: u64,
    /// The process that delivered it.
    pub process: ProcessId,
    /// The round it was delivered in.
    pub round: Round,
    /// The payload.
    pub data: Vec<u8>,
}

/// What a cluster run reports: one node's share, or several merged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Every delivered rumor, ordered by `(round, process)`.
    pub deliveries: Vec<Delivery>,
    /// Protocol messages sent over sockets (excluding round markers and
    /// local self-deliveries).
    pub messages: u64,
    /// Outbound messages dropped at the sender because the topology had no
    /// link to the destination that round (0 on the complete topology).
    pub topology_drops: u64,
    /// Bytes and `write` calls out, and gossip rumors defined, referred
    /// to, decoded in full and evicted, per node or summed.
    pub wire: WireStats,
    /// Rounds executed.
    pub rounds: u64,
    /// The watched nodes' sightings, sorted by `(round, observer, sender,
    /// tag)`. In-process only: the JSON form does not carry them.
    pub sightings: Vec<Sighting>,
}

impl ClusterReport {
    /// Merges per-node reports: counters add up, `rounds` is the largest,
    /// and deliveries and sightings pool into the canonical order above,
    /// whatever order the reports come in.
    pub fn merge(reports: impl IntoIterator<Item = ClusterReport>) -> ClusterReport {
        let mut merged = ClusterReport::default();
        for report in reports {
            merged.deliveries.extend(report.deliveries);
            merged.messages += report.messages;
            merged.topology_drops += report.topology_drops;
            merged.wire += report.wire;
            merged.rounds = merged.rounds.max(report.rounds);
            merged.sightings.extend(report.sightings);
        }
        merged.deliveries.sort_by_key(|d| (d.round, d.process));
        merged
            .sightings
            .sort_by_key(|s| (s.round, s.observer, s.sender, s.tag.name()));
        merged
    }

    /// The report without its sightings, payloads as hex strings.
    pub fn to_json(&self) -> Json {
        let deliveries = self
            .deliveries
            .iter()
            .map(|d| {
                Json::object([
                    ("wid", Json::from(d.wid)),
                    ("process", Json::from(d.process.as_usize())),
                    ("round", Json::from(d.round.as_u64())),
                    ("data", Json::from(hex(&d.data))),
                ])
            })
            .collect();
        Json::object([
            ("deliveries", Json::Array(deliveries)),
            ("messages", Json::from(self.messages)),
            ("topology_drops", Json::from(self.topology_drops)),
            (
                "wire",
                Json::object([
                    ("bytes_out", Json::from(self.wire.bytes_out)),
                    ("writes", Json::from(self.wire.writes)),
                    ("rumors_defined", Json::from(self.wire.rumors_defined)),
                    ("rumors_referenced", Json::from(self.wire.rumors_referenced)),
                    ("rumors_decoded", Json::from(self.wire.rumors_decoded)),
                    ("rumors_evicted", Json::from(self.wire.rumors_evicted)),
                ]),
            ),
            ("rounds", Json::from(self.rounds)),
        ])
    }

    /// Reads what [`to_json`](Self::to_json) wrote.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<ClusterReport, String> {
        let num = |v: &Json, key: &str| {
            v[key]
                .as_f64()
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| format!("missing or malformed {key:?}"))
        };
        let deliveries = doc["deliveries"]
            .as_array()
            .ok_or("missing or malformed \"deliveries\"")?
            .iter()
            .map(|d| {
                Ok(Delivery {
                    wid: num(d, "wid")?,
                    process: u32::try_from(num(d, "process")?)
                        .map(|p| ProcessId::new(p as usize))
                        .map_err(|_| "malformed \"process\"")?,
                    round: Round(num(d, "round")?),
                    data: d["data"]
                        .as_str()
                        .and_then(unhex)
                        .ok_or("missing or malformed \"data\"")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ClusterReport {
            deliveries,
            messages: num(doc, "messages")?,
            topology_drops: num(doc, "topology_drops")?,
            wire: WireStats {
                bytes_out: num(&doc["wire"], "bytes_out")?,
                writes: num(&doc["wire"], "writes")?,
                rumors_defined: num(&doc["wire"], "rumors_defined")?,
                rumors_referenced: num(&doc["wire"], "rumors_referenced")?,
                rumors_decoded: num(&doc["wire"], "rumors_decoded")?,
                rumors_evicted: num(&doc["wire"], "rumors_evicted")?,
            },
            rounds: num(doc, "rounds")?,
            sightings: Vec::new(),
        })
    }
}

/// `bytes` as lower-case hex.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes a hex string spells, if it spells any.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digit = |b: u8| (b as char).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| Some((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, run_with_factory, RunSpec};
    use congos_adversary::{CoalitionSpec, NoFailures, OneShot, PoissonWorkload};
    use congos_baselines::DirectNode;
    use congos_sim::{Protocol, Tag};

    #[test]
    fn materializes_oneshot() {
        let spec = RumorSpec::new(7, vec![1, 2], 32, vec![ProcessId::new(2)]);
        let mut w = OneShot::new(Round(3), vec![(ProcessId::new(0), spec.clone())]);
        let schedule: Vec<(u64, ProcessId, RumorSpec)> = materialize_injections(4, 10, &mut w);
        assert_eq!(schedule, vec![(3, ProcessId::new(0), spec)]);
    }

    #[test]
    fn materialized_poisson_matches_engine_trajectory() {
        // Poisson is oblivious (round + rng only), so materializing it must
        // produce the schedule a failure-free engine run injects.
        let mk = || PoissonWorkload::new(0.2, 2, 16, 5).until(Round(12));
        let schedule: Vec<(u64, ProcessId, RumorSpec)> = materialize_injections(6, 20, &mut mk());
        assert!(!schedule.is_empty(), "rate 0.2 over 6x12 should inject");
        let engine = run::<DirectNode, _, _>(RunSpec::new(6, 1, 20), NoFailures, mk());
        let injected: Vec<_> = engine
            .injections
            .into_iter()
            .map(|e| (e.round.as_u64(), e.source, e.spec))
            .collect();
        assert_eq!(schedule, injected);
    }

    fn input(wid: u64, data: Vec<u8>, deadline: u64, dest: &[usize]) -> CongosInput {
        CongosInput {
            wid,
            data,
            deadline,
            dest: dest.iter().map(|&d| ProcessId::new(d)).collect(),
        }
    }

    #[test]
    fn rumor_delivered_over_real_sockets() {
        let report = Cluster::new(4, 18510)
            .rounds(70)
            .seed(3)
            .run(vec![(
                0,
                ProcessId::new(0),
                input(0, b"tcp".to_vec(), 64, &[2, 3]),
            )])
            .expect("cluster run");
        assert_eq!(report.deliveries.len(), 2);
        for d in &report.deliveries {
            assert_eq!(d.data, b"tcp".to_vec());
            assert!(d.round.as_u64() <= 64);
        }
        assert!(report.messages > 0);
        assert!(
            report.wire.rumors_referenced > 0,
            "pushes repeat rumors: {:?}",
            report.wire
        );
    }

    #[test]
    fn multiple_sources_and_rounds() {
        let report = Cluster::new(5, 18530)
            .rounds(80)
            .seed(4)
            .run(vec![
                (0, ProcessId::new(0), input(0, vec![1], 64, &[4])),
                (5, ProcessId::new(1), input(1, vec![2], 64, &[3, 4])),
            ])
            .expect("cluster run");
        assert_eq!(report.deliveries.len(), 3);
        let w1: Vec<_> = report.deliveries.iter().filter(|d| d.wid == 1).collect();
        assert_eq!(w1.len(), 2);
        assert!(w1.iter().all(|d| d.round.as_u64() <= 5 + 64));
    }

    /// Each node writes to each peer once per round: the peer's frames and
    /// the round's marker leave together. The traffic is light enough for
    /// every socket to take every write whole.
    #[test]
    fn a_round_is_one_write_per_peer() {
        let (n, rounds) = (4, 16);
        let report = Cluster::new(n, 18590)
            .rounds(rounds)
            .seed(5)
            .run(vec![(
                0,
                ProcessId::new(0),
                input(0, b"w".to_vec(), 16, &[1, 3]),
            )])
            .expect("cluster run");
        assert!(report.messages > 0);
        assert_eq!(report.wire.writes, (n * (n - 1)) as u64 * rounds);
    }

    #[test]
    fn single_node_cluster() {
        let report = Cluster::new(1, 18550)
            .rounds(4)
            .run(vec![(0, ProcessId::new(0), input(0, vec![7], 16, &[0]))])
            .expect("cluster run");
        assert_eq!(report.deliveries.len(), 1);
        assert_eq!(report.messages, 0);
    }

    /// Asserts that `cluster` is refused with `InvalidInput` naming
    /// `needle`, by both entry points.
    fn assert_invalid(cluster: Cluster, id: usize, needle: &str) {
        for err in [
            cluster.run(vec![]).map(drop),
            cluster.run_node(id, vec![]).map(drop),
        ]
        .map(Result::unwrap_err)
        {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn empty_cluster_is_invalid_input() {
        assert_invalid(Cluster::new(0, 18570), 0, "n = 0");
    }

    #[test]
    fn infeasible_topology_is_invalid_input() {
        let cluster = Cluster::new(4, 18570).topology(TopologySpec::Expander { degree: 4 });
        assert_invalid(cluster, 0, "expander:4");
    }

    #[test]
    fn port_range_past_65535_is_invalid_input() {
        assert_invalid(Cluster::new(4, 65535), 0, "base port 65535 + n = 4");
        // n no longer wraps around when it does not fit in a port number.
        assert_invalid(Cluster::new(65_537, 1), 0, "n = 65537");
    }

    #[test]
    fn node_id_past_n_is_invalid_input() {
        let err = Cluster::new(4, 18570).run_node(4, vec![]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("node id 4"), "{err}");
    }

    #[test]
    fn a_destination_outside_the_cluster_is_invalid_input() {
        let cluster = Cluster::new(4, 18570).rounds(2);
        let injections = vec![(0, ProcessId::new(0), input(5, vec![0xab], 16, &[1, 9]))];
        for err in [
            cluster.run(injections.clone()).map(drop),
            cluster.run_node(0, injections).map(drop),
        ]
        .map(Result::unwrap_err)
        {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            assert_eq!(
                err.to_string(),
                "injection 5 at p0 in round 0 names destination p9, \
                 outside the 4-process cluster"
            );
        }
    }

    /// The TCP leg of the E13 tap: watched cluster nodes record what the
    /// engine's observer records (in canonical rather than delivery order).
    #[test]
    fn tcp_tap_sees_what_the_engine_tap_sees() {
        let (n, seed, rounds) = (5, 2, 70);
        let members = CoalitionSpec::new(0.4, 5).members(n, Some(ProcessId::new(0)));
        let rumor = RumorSpec::new(0, b"who said it".to_vec(), 64, vec![ProcessId::new(3)]);
        let mk = || OneShot::new(Round(1), vec![(ProcessId::new(0), rumor.clone())]);
        let mut tap = CoalitionTap::new(n, &members);
        let spec = RunSpec::new(n, seed, rounds);
        run_with_factory(spec, CongosNode::new, NoFailures, mk(), &mut tap);
        let mut seen: Vec<Sighting> = tap.log().iter().copied().collect();
        seen.sort_by_key(|s| (s.round, s.observer, s.sender, s.tag.name()));
        assert!(!seen.is_empty());
        let report = Cluster::new(n, 20780)
            .seed(seed)
            .rounds(rounds)
            .watch(members)
            .run(materialize_injections(n, rounds, &mut mk()))
            .expect("cluster run");
        assert_eq!(report.sightings, seen);
    }

    #[test]
    fn an_audit_violation_fails_the_node_naming_it() {
        use congos::{CongosRumorId, DeliveredRumor, DeliveryPath};
        use congos_sim::OutputRecord;
        let me = ProcessId::new(2);
        let mut audit = ConfidentialityAuditor::new(4);
        audit_verdict(me, &audit).expect("nothing observed, nothing violated");
        // A delivery of a rumor nobody injected is corrupt by definition.
        let rid = CongosRumorId {
            source: ProcessId::new(0),
            birth: Round(0),
            seq: 0,
        };
        let rec = OutputRecord {
            round: Round(5),
            process: me,
            value: DeliveredRumor {
                wid: 0,
                rid,
                data: vec![1],
                via: DeliveryPath::Direct,
            },
        };
        Observer::<CongosNode>::on_output(&mut audit, &rec);
        let err = audit_verdict(me, &audit).unwrap_err().to_string();
        assert!(
            err.starts_with("node 2: confidentiality audit failed: CorruptDelivery"),
            "{err}"
        );
    }

    #[test]
    fn report_survives_a_json_round_trip() {
        let report = ClusterReport {
            deliveries: vec![
                Delivery {
                    wid: 3,
                    process: ProcessId::new(2),
                    round: Round(9),
                    data: b"hi!".to_vec(),
                },
                Delivery {
                    wid: 1 << 40,
                    process: ProcessId::new(0),
                    round: Round(70),
                    data: vec![0, 0xff, 0x10],
                },
            ],
            messages: 1234,
            topology_drops: 5,
            wire: WireStats {
                bytes_out: 9_876_543_210,
                writes: 4321,
                rumors_defined: 17,
                rumors_referenced: 1 << 33,
                rumors_decoded: 15,
                rumors_evicted: 3,
            },
            rounds: 80,
            sightings: Vec::new(),
        };
        let text = report.to_json().to_string_compact();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(ClusterReport::from_json(&back), Ok(report));
        assert!(ClusterReport::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn merge_is_canonical_whatever_the_order() {
        let node = |p: usize, rounds: &[u64]| ClusterReport {
            deliveries: rounds
                .iter()
                .map(|&r| Delivery {
                    wid: r,
                    process: ProcessId::new(p),
                    round: Round(r),
                    data: vec![],
                })
                .collect(),
            messages: 10,
            topology_drops: p as u64,
            wire: WireStats {
                bytes_out: 100,
                writes: 5,
                rumors_defined: 1,
                rumors_referenced: 2 + p as u64,
                rumors_decoded: 1,
                rumors_evicted: p as u64,
            },
            rounds: 40 + p as u64,
            sightings: vec![Sighting {
                round: Round(1),
                observer: ProcessId::new(p),
                sender: ProcessId::new(0),
                tag: Tag("t"),
            }],
        };
        let a = ClusterReport::merge([node(0, &[3, 7]), node(1, &[2, 7])]);
        let b = ClusterReport::merge([node(1, &[2, 7]), node(0, &[3, 7])]);
        assert_eq!(a, b);
        let order: Vec<_> = a
            .deliveries
            .iter()
            .map(|d| (d.round.as_u64(), d.process.as_usize()))
            .collect();
        assert_eq!(order, [(2, 1), (3, 0), (7, 0), (7, 1)]);
        assert_eq!((a.messages, a.topology_drops, a.rounds), (20, 1, 41));
        let wire = WireStats {
            bytes_out: 200,
            writes: 10,
            rumors_defined: 2,
            rumors_referenced: 5,
            rumors_decoded: 2,
            rumors_evicted: 1,
        };
        assert_eq!(a.wire, wire);
        assert_eq!(a.sightings.len(), 2);
    }

    #[test]
    fn hex_round_trips_and_rejects_non_hex() {
        assert_eq!(hex(b"hi!"), "686921");
        assert_eq!(unhex("686921"), Some(b"hi!".to_vec()));
        for bad in ["6", "zz", "+a", "aéa"] {
            assert_eq!(unhex(bad), None, "{bad}");
        }
    }
}
