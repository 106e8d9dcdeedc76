//! The simulator workloads: `Engine<CongosNode>` driven one round at a time
//! through its sequential `step` / `step_observed` path.
//!
//! The untraced pass calls `Engine::step` and reads a clock around it. The
//! traced pass calls `Engine::step_observed` with a benchmark-owned adversary
//! wrapper and observer that take timestamps at the phase boundaries the
//! engine exposes to them, so a round's wall splits — exactly — into
//!
//! * send    = step entry → `decide` entry (protocol send, outbox merge,
//!   metering, building the adversary's view),
//! * decide  = the adversary's own time,
//! * route   = `decide` exit → last `on_deliver` (crash/restart application
//!   and `MemTransport::route_with`),
//! * compute = last `on_deliver` → step return (protocol receive, output
//!   merge, round bookkeeping).

use std::collections::BTreeMap;
use std::time::Instant;

use congos::{
    CongosInput, CongosNode, FragStore, NodeStats, TAG_ALL_GOSSIP, TAG_GD, TAG_GROUP_GOSSIP,
    TAG_PROXY, TAG_SHOOT,
};
use congos_adversary::{CrriAdversary, FailurePlan, NoFailures, RandomChurn};
use congos_harness::mem;
use congos_sim::{
    Adversary, Engine, EngineConfig, EnvelopeRef, Observer, ProcessId, RoundDecision, RoundView,
    Tag,
};

use crate::trace::SpanLog;
use crate::unit::{node_layer_metrics, sum_stats, Unit};
use crate::workloads::{assess, schedule, Injection, Kind, Replay, Workload, CHURN};

/// CONGOS wire tags and the per-layer metric prefix each is reported under.
const SERVICES: [(Tag, &str); 5] = [
    (TAG_PROXY, "congos.proxy"),
    (TAG_GD, "congos.group_dist"),
    (TAG_GROUP_GOSSIP, "congos.group_gossip"),
    (TAG_ALL_GOSSIP, "congos.all_gossip"),
    (TAG_SHOOT, "congos.shoot"),
];

/// Timestamps `decide` entry and exit and counts what the adversary did.
struct TimedAdversary<A> {
    inner: A,
    enter: Instant,
    exit: Instant,
    crashes: u64,
    restarts: u64,
    injections: u64,
}

impl<A: Adversary<CongosNode>> Adversary<CongosNode> for TimedAdversary<A> {
    fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<CongosInput> {
        self.enter = Instant::now();
        let decision = self.inner.decide(view);
        self.crashes += decision.crashes.len() as u64;
        self.restarts += decision.restarts.len() as u64;
        self.injections += decision.injections.len() as u64;
        self.exit = Instant::now();
        decision
    }
}

/// Timestamps the most recent delivery: after the round, the end of routing.
#[derive(Default)]
struct DeliveryClock {
    last: Option<Instant>,
    delivered: u64,
}

impl Observer<CongosNode> for DeliveryClock {
    fn on_deliver(&mut self, _env: EnvelopeRef<'_, congos::CongosMsg>) {
        self.last = Some(Instant::now());
        self.delivered += 1;
    }
}

/// Runs one unit of a simulator workload.
pub fn run_unit(w: &Workload, seed: u64, traced: bool) -> Unit {
    match w.kind {
        Kind::SimChurn => run_with(w, seed, traced, RandomChurn::new(CHURN.0, CHURN.1, seed)),
        Kind::SimPipeline | Kind::SimCollusion => run_with(w, seed, traced, NoFailures),
        Kind::Tcp => unreachable!("tcp_cluster_n8 runs in crate::tcp"),
    }
}

/// Everything before round 0: schedule, nodes, engine, adversary.
fn set_up<F: FailurePlan>(
    w: &Workload,
    seed: u64,
    failures: F,
) -> (Vec<Injection>, Engine<CongosNode>, CrriAdversary<F, Replay>) {
    let sched = schedule(w, seed);
    let cfg = w.config(seed);
    let engine =
        Engine::<CongosNode>::with_factory(EngineConfig::new(w.n).seed(seed), move |id, n, _| {
            CongosNode::with_config(id, n, cfg.clone())
        });
    let adversary = CrriAdversary::new(failures, Replay::new(&sched));
    (sched, engine, adversary)
}

/// Times one set-up and throws the result away (extra `setup_s` samples).
pub fn time_setup(w: &Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let built = set_up(w, seed, NoFailures);
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

fn run_with<F: FailurePlan>(w: &Workload, seed: u64, traced: bool, failures: F) -> Unit {
    // Weak entries of the previous unit's fragments would otherwise be
    // pruned lazily inside this unit's timed rounds.
    FragStore::global().gc();

    let t_setup = Instant::now();
    let (sched, mut engine, adversary) = set_up(w, seed, failures);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut adversary = TimedAdversary {
        inner: adversary,
        enter: t_setup,
        exit: t_setup,
        crashes: 0,
        restarts: 0,
        injections: 0,
    };
    let mut clock = DeliveryClock::default();
    let mut log = traced.then(|| SpanLog::new(Instant::now(), None));
    let mut round_ms = Vec::with_capacity(w.rounds as usize);

    let frag_before = FragStore::global().stats();
    let alloc_before = mem::bytes_allocated();
    let t_loop = Instant::now();
    for r in 0..w.rounds {
        let t0 = Instant::now();
        let t1 = match &mut log {
            None => {
                engine.step(&mut adversary.inner);
                Instant::now()
            }
            Some(log) => {
                clock.last = None;
                engine.step_observed(&mut adversary, &mut clock);
                let t1 = Instant::now();
                let routed = clock.last.unwrap_or(adversary.exit);
                log.open_at("round", r, t0);
                log.record("sim.engine.send", r, t0, adversary.enter);
                log.record("adversary.decide", r, adversary.enter, adversary.exit);
                log.record("sim.engine.route", r, adversary.exit, routed);
                log.record("sim.engine.compute", r, routed, t1);
                log.close_at(t1);
                t1
            }
        };
        round_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    let wall_s = t_loop.elapsed().as_secs_f64();
    let alloc_bytes = mem::bytes_allocated() - alloc_before;
    let live_peak_bytes = mem::bytes_live_peak();
    let frag_after = FragStore::global().stats();

    let liveness = engine.liveness();
    let assessment = assess(&sched, engine.outputs(), |p, from, to| {
        liveness.continuously_alive(p, from, to)
    });
    let metrics = engine.metrics();
    let stats: NodeStats = sum_stats(ProcessId::all(w.n).map(|p| engine.protocol(p).stats()));

    let mut layer = BTreeMap::new();
    if let Some(log) = &log {
        let self_ns = crate::trace::self_time_ns(&log.spans);
        for (span, metric) in [
            ("sim.engine.send", "sim.engine.send_ms"),
            ("sim.engine.route", "sim.engine.route_ms"),
            ("sim.engine.compute", "sim.engine.compute_ms"),
            ("adversary.decide", "adversary.decide_ms"),
        ] {
            layer.insert(metric.to_string(), self_ns[span] as f64 / 1e6);
        }
        let sent = metrics.total();
        layer.insert("sim.engine.setup_ms".into(), setup_s * 1e3);
        layer.insert("sim.engine.msgs_sent".into(), sent as f64);
        layer.insert("sim.engine.msgs_delivered".into(), clock.delivered as f64);
        layer.insert(
            "sim.engine.delivered_ratio".into(),
            clock.delivered as f64 / sent.max(1) as f64,
        );
        layer.insert("sim.engine.outputs".into(), engine.outputs().len() as f64);
        layer.insert("adversary.crashes".into(), adversary.crashes as f64);
        layer.insert("adversary.restarts".into(), adversary.restarts as f64);
        layer.insert("adversary.injections".into(), adversary.injections as f64);
        for (tag, prefix) in SERVICES {
            layer.insert(format!("{prefix}.msgs"), metrics.total_of(tag) as f64);
            layer.insert(
                format!("{prefix}.wire_mib"),
                metrics.total_bytes_of(tag) as f64 / (1024.0 * 1024.0),
            );
        }
        node_layer_metrics(&mut layer, &stats, &frag_before, &frag_after);
    }

    Unit {
        seed,
        setup_s,
        wall_s,
        round_ms,
        msgs: metrics.total(),
        msgs_per_round_max: metrics.max_per_round(),
        alloc_bytes,
        live_peak_bytes,
        assessment,
        layer,
        spans: log.map(|l| l.spans).unwrap_or_default(),
    }
}
