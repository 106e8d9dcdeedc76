//! The TCP workload: eight `NodeDriver<CongosNode>` threads, each over its
//! own `congos_net::TcpTransport`, all on this host's loopback interface.
//!
//! The engine is bypassed entirely. The benchmark wraps each node's
//! transport in [`TapTransport`], which in the traced pass records a span
//! around every `RoundTransport` call; phase time minus the transport calls
//! inside it is the protocol's own time on that node. No `WireFrame` is ever
//! built here, so a change of wire format cannot break the benchmark.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::TcpListener;
use std::sync::Barrier;
use std::time::Instant;

use congos::{
    CongosInput, CongosMsg, CongosNode, DeliveredRumor, FragStore, FragStoreStats, NodeStats,
};
use congos_harness::mem;
use congos_net::TcpTransport;
use congos_sim::message::SendColumns;
use congos_sim::{
    run_local_cluster, Envelope, NodeDriver, OutputRecord, ProcessId, Round, RoundTransport,
    TopologySpec,
};

use crate::trace::{self_time_ns, Span, SpanLog};
use crate::unit::{node_layer_metrics, sum_stats, Unit};
use crate::workloads::{assess, schedule, Workload};

/// First port tried for the cluster's listeners; if any port of a range is
/// taken, the next range is tried.
const BASE_PORT: u16 = 24100;
const PORT_RANGES: u16 = 8;

/// Forwards to the node's `TcpTransport`; with a log, times every call.
struct TapTransport {
    inner: TcpTransport,
    log: Option<SpanLog>,
}

impl TapTransport {
    fn timed<R>(
        &mut self,
        name: &'static str,
        round: Round,
        call: impl FnOnce(&mut TcpTransport) -> R,
    ) -> R {
        match &mut self.log {
            None => call(&mut self.inner),
            Some(log) => {
                let t0 = Instant::now();
                let r = call(&mut self.inner);
                log.record(name, round.as_u64(), t0, Instant::now());
                r
            }
        }
    }
}

impl RoundTransport<CongosMsg> for TapTransport {
    fn send_outbox(
        &mut self,
        round: Round,
        src: ProcessId,
        out: &mut SendColumns<CongosMsg>,
    ) -> io::Result<()> {
        self.timed("net.transport.send_outbox", round, |t| {
            t.send_outbox(round, src, out)
        })
    }

    fn end_of_round(&mut self, round: Round, src: ProcessId) -> io::Result<()> {
        self.timed("net.transport.end_of_round", round, |t| {
            t.end_of_round(round, src)
        })
    }

    fn recv_until_barrier(
        &mut self,
        round: Round,
        dst: ProcessId,
        inbox: &mut Vec<Envelope<CongosMsg>>,
    ) -> io::Result<()> {
        self.timed("net.transport.recv_until_barrier", round, |t| {
            t.recv_until_barrier(round, dst, inbox)
        })
    }
}

/// One node's share of a unit.
struct NodeRun {
    outputs: Vec<OutputRecord<DeliveredRumor>>,
    stats: NodeStats,
    /// Messages this node put on sockets in each round.
    sent_in_round: Vec<u64>,
    round_ms: Vec<f64>,
    spans: Vec<Span>,
    topology_drops: u64,
    connect_s: f64,
}

fn bind_cluster(n: usize) -> io::Result<(u16, Vec<TcpListener>)> {
    let mut last_err = None;
    for k in 0..PORT_RANGES {
        let base = BASE_PORT + k * 64;
        let bound: io::Result<Vec<TcpListener>> = (0..n)
            .map(|i| TcpListener::bind(("127.0.0.1", base + i as u16)))
            .collect();
        match bound {
            Ok(listeners) => return Ok((base, listeners)),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one range tried"))
}

fn drive(
    mut driver: NodeDriver<CongosNode>,
    mut transport: TapTransport,
    mut inputs: VecDeque<(u64, CongosInput)>,
    rounds: u64,
    connect_s: f64,
) -> io::Result<NodeRun> {
    let mut sent_in_round = Vec::with_capacity(rounds as usize);
    let mut sent_before = 0;
    let mut round_ms = Vec::with_capacity(rounds as usize);
    for r in 0..rounds {
        let t0 = Instant::now();
        if let Some(log) = &mut transport.log {
            log.open_at("round", r, t0);
            log.open("net.node.send_phase", r);
        }
        driver.send_phase(&mut transport)?;
        let sent = transport.inner.messages();
        sent_in_round.push(sent - sent_before);
        sent_before = sent;
        if let Some(log) = &mut transport.log {
            log.close();
            log.open("net.node.compute_phase", r);
        }
        let input = match inputs.front() {
            Some((due, _)) if *due == r => inputs.pop_front().map(|(_, input)| input),
            _ => None,
        };
        driver.compute_phase(&mut transport, input)?;
        let t1 = Instant::now();
        if let Some(log) = &mut transport.log {
            log.close_at(t1);
            log.close_at(t1);
        }
        round_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    Ok(NodeRun {
        stats: driver.protocol().stats(),
        outputs: driver.into_outputs(),
        sent_in_round,
        round_ms,
        spans: transport.log.take().map(|l| l.spans).unwrap_or_default(),
        topology_drops: transport.inner.topology_drops(),
        connect_s,
    })
}

/// What the main thread measures around the nodes' round loop.
struct LoopMeasure {
    setup_s: f64,
    wall_s: f64,
    alloc_bytes: u64,
    live_peak_bytes: u64,
    frag_before: FragStoreStats,
    frag_after: FragStoreStats,
}

/// Runs one unit: binds and connects the cluster (set-up), then drives
/// `rounds` rounds on every node between two barriers (the round loop).
fn cluster(w: &Workload, seed: u64, traced: bool, rounds: u64) -> io::Result<Unit> {
    FragStore::global().gc();
    let n = w.n;

    let t_setup = Instant::now();
    let sched = schedule(w, seed);
    let mut inputs: Vec<VecDeque<(u64, CongosInput)>> = vec![VecDeque::new(); n];
    for inj in &sched {
        inputs[inj.source.as_usize()].push_back((inj.round, inj.spec.clone().into()));
    }
    let (base_port, listeners) = bind_cluster(n)?;
    let start = Barrier::new(n + 1);
    let finish = Barrier::new(n + 1);

    let (measure, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .zip(inputs)
            .enumerate()
            .map(|(i, (listener, inputs))| {
                let (start, finish) = (&start, &finish);
                let cfg = w.config(seed);
                scope.spawn(move || {
                    let me = ProcessId::new(i);
                    let t0 = Instant::now();
                    let connected = TcpTransport::with_listener(
                        me,
                        n,
                        base_port,
                        listener,
                        TopologySpec::Complete,
                        seed,
                    )
                    .map(|inner| {
                        let connect_s = t0.elapsed().as_secs_f64();
                        let driver = NodeDriver::with_factory(me, n, seed, |id, n, _| {
                            CongosNode::with_config(id, n, cfg)
                        });
                        let log = traced.then(|| SpanLog::new(t_setup, Some(i)));
                        (driver, TapTransport { inner, log }, connect_s)
                    });
                    // Every thread reaches both barriers whatever happened,
                    // so one node's error cannot strand the others.
                    start.wait();
                    let run = connected.and_then(|(driver, transport, connect_s)| {
                        drive(driver, transport, inputs, rounds, connect_s)
                    });
                    finish.wait();
                    run
                })
            })
            .collect();

        start.wait();
        let setup_s = t_setup.elapsed().as_secs_f64();
        let frag_before = FragStore::global().stats();
        let alloc_before = mem::bytes_allocated();
        let t_loop = Instant::now();
        finish.wait();
        let measure = LoopMeasure {
            setup_s,
            wall_s: t_loop.elapsed().as_secs_f64(),
            alloc_bytes: mem::bytes_allocated() - alloc_before,
            live_peak_bytes: mem::bytes_live_peak(),
            frag_before,
            frag_after: FragStore::global().stats(),
        };
        let results: Vec<io::Result<NodeRun>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        (measure, results)
    });
    let mut nodes: Vec<NodeRun> = results.into_iter().collect::<io::Result<_>>()?;

    let msgs_per_round_max = (0..rounds as usize)
        .map(|r| nodes.iter().map(|node| node.sent_in_round[r]).sum::<u64>())
        .max()
        .unwrap_or(0);
    let msgs: u64 = nodes.iter().flat_map(|node| &node.sent_in_round).sum();

    // One delivery log and one span list for the cluster; span parents are
    // indices, so each node's are shifted by what came before.
    let mut outputs: Vec<OutputRecord<DeliveredRumor>> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    for node in &mut nodes {
        outputs.append(&mut node.outputs);
        let offset = spans.len();
        spans.extend(node.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    let assessment = assess(&sched, &outputs, |_, _, _| true);

    let mut layer = BTreeMap::new();
    if traced {
        let self_ns = self_time_ns(&spans);
        for (span, metric) in [
            ("net.transport.send_outbox", "net.transport.send_outbox_ms"),
            (
                "net.transport.end_of_round",
                "net.transport.end_of_round_ms",
            ),
            (
                "net.transport.recv_until_barrier",
                "net.transport.barrier_wait_ms",
            ),
            ("net.node.send_phase", "net.node.send_self_ms"),
            ("net.node.compute_phase", "net.node.compute_self_ms"),
        ] {
            let ns = self_ns.get(span).copied().unwrap_or(0);
            layer.insert(metric.to_string(), ns as f64 / 1e6);
        }
        let connect_s = nodes.iter().map(|node| node.connect_s).fold(0.0, f64::max);
        layer.insert("net.transport.connect_ms".into(), connect_s * 1e3);
        layer.insert("net.transport.msgs".into(), msgs as f64);
        layer.insert(
            "net.transport.topology_drops".into(),
            nodes.iter().map(|node| node.topology_drops).sum::<u64>() as f64,
        );
        let stats = sum_stats(nodes.iter().map(|node| node.stats));
        node_layer_metrics(
            &mut layer,
            &stats,
            &measure.frag_before,
            &measure.frag_after,
        );
    }

    Ok(Unit {
        seed,
        setup_s: measure.setup_s,
        wall_s: measure.wall_s,
        round_ms: std::mem::take(&mut nodes[0].round_ms),
        msgs,
        msgs_per_round_max,
        alloc_bytes: measure.alloc_bytes,
        live_peak_bytes: measure.live_peak_bytes,
        assessment,
        layer,
        spans,
    })
}

/// Runs one measured unit of the TCP workload.
pub fn run_unit(w: &Workload, seed: u64, traced: bool) -> io::Result<Unit> {
    cluster(w, seed, traced, w.rounds)
}

/// Times one bind + connect + node construction, then tears it down.
pub fn time_setup(w: &Workload, seed: u64) -> io::Result<f64> {
    cluster(w, seed, false, 0).map(|unit| unit.setup_s)
}

/// Delivery digest of the in-memory reference cluster
/// (`congos_sim::run_local_cluster`) on the same schedule: what the sockets
/// must reproduce.
pub fn reference_digest(w: &Workload, seed: u64) -> io::Result<u64> {
    let sched = schedule(w, seed);
    let injections = sched
        .iter()
        .map(|inj| (inj.round, inj.source, inj.spec.clone().into()))
        .collect();
    let outputs =
        run_local_cluster::<CongosNode>(w.n, seed, TopologySpec::Complete, w.rounds, injections)?;
    Ok(assess(&sched, &outputs, |_, _, _| true).digest)
}
