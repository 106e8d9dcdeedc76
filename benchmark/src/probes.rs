//! Layer probes: fixed micro-loads timed around one layer's public calls,
//! each reported as the median of [`BATCHES`] batches. They run in the traced
//! pass only and do not depend on the workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use congos::{split, CongosNode, FragStore};
use congos_gossip::{ContinuousGossip, GossipConfig, GossipWire};
use congos_harness::experiments::e3_memory::sweep_config;
use congos_sim::message::SendColumns;
use congos_sim::rng::named_rng;
use congos_sim::{IdSet, MemTransport, ProcessId, Round, Tag, TopologySpec};

use crate::stats::{median, SplitMix64};

const BATCHES: usize = 31;

/// Runs every probe; keys are per-layer metric names.
pub fn run_all(seed: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    mem_transport(&mut out, seed, TopologySpec::Complete, "complete");
    mem_transport(
        &mut out,
        seed,
        TopologySpec::Expander { degree: 4 },
        "expander4",
    );
    split_merge(&mut out, seed);
    fragstore(&mut out);
    node_construct(&mut out);
    gossip_service(&mut out, seed);
    out
}

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// `MemTransport<u64>`: 1024 processes append ~100 k envelopes in pid order
/// (`begin_round` + `append_outbox`), then `route_with` delivers them.
fn mem_transport(out: &mut BTreeMap<String, f64>, seed: u64, spec: TopologySpec, label: &str) {
    const N: usize = 1024;
    const PER_PROCESS: usize = 98;
    let envelopes = (N * PER_PROCESS) as f64;
    let mut mem = MemTransport::<u64>::new(spec, N, seed);
    let mut rng = SplitMix64(seed);
    let mut bufs: Vec<SendColumns<u64>> = (0..N).map(|_| SendColumns::default()).collect();
    let (mut append, mut route) = (Vec::new(), Vec::new());
    for batch in 0..BATCHES {
        for buf in &mut bufs {
            for _ in 0..PER_PROCESS {
                buf.push(ProcessId::new(rng.below(N)), Tag("probe"), rng.next_u64());
            }
        }
        let round = Round(batch as u64);
        let t0 = Instant::now();
        mem.begin_round(round);
        for (i, buf) in bufs.iter_mut().enumerate() {
            mem.append_outbox(ProcessId::new(i), buf);
        }
        append.push(ns_since(t0) / envelopes);
        let t1 = Instant::now();
        mem.route_with(
            round,
            |_, _| true,
            |_, _| true,
            |env| {
                black_box(env.payload);
            },
            || (),
        );
        route.push(ns_since(t1) / envelopes);
        black_box(mem.inbox_lists());
    }
    // Appending does not depend on the topology: report it once.
    if label == "complete" {
        out.insert(
            "sim.mem_transport.append_ns_per_env".into(),
            median(&append),
        );
    }
    out.insert(
        format!("sim.mem_transport.route_ns_per_env.{label}"),
        median(&route),
    );
}

/// `split::split_interned` (two fragments) and `split::merge` on 1 KiB.
fn split_merge(out: &mut BTreeMap<String, f64>, seed: u64) {
    const REPS: usize = 256;
    let store = FragStore::new();
    let mut rng = named_rng(seed, "benchmark.split");
    let data: Vec<u8> = (0..1024).map(|i| i as u8).collect();
    let (mut split_ns, mut merge_ns) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut last = Vec::new();
        for _ in 0..REPS {
            last = split::split_interned(&mut rng, black_box(&data), 2, &store);
        }
        split_ns.push(ns_since(t0) / REPS as f64);
        let parts: Vec<&[u8]> = last.iter().map(|f| &f[..]).collect();
        let t1 = Instant::now();
        for _ in 0..REPS {
            black_box(split::merge(black_box(&parts)));
        }
        merge_ns.push(ns_since(t1) / REPS as f64);
    }
    out.insert("congos.split.split_ns_per_kib".into(), median(&split_ns));
    out.insert("congos.split.merge_ns_per_kib".into(), median(&merge_ns));
}

/// `FragStore::intern_bytes` on 64-byte strings: a hit (the string is alive
/// in the store) and a miss (never seen; the handle is dropped at once).
fn fragstore(out: &mut BTreeMap<String, f64>) {
    const REPS: u64 = 4096;
    let store = FragStore::new();
    let resident = [0xA5u8; 64];
    let _alive = store.intern_bytes(&resident);
    let mut fresh = [0u8; 64];
    let mut counter = 0u64;
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(store.intern_bytes(black_box(&resident)));
        }
        hit.push(ns_since(t0) / REPS as f64);
        let t1 = Instant::now();
        for _ in 0..REPS {
            counter += 1;
            fresh[..8].copy_from_slice(&counter.to_le_bytes());
            black_box(store.intern_bytes(&fresh));
        }
        miss.push(ns_since(t1) / REPS as f64);
    }
    out.insert("congos.fragstore.intern_hit_ns".into(), median(&hit));
    out.insert("congos.fragstore.intern_miss_ns".into(), median(&miss));
}

/// `CongosNode::with_config` for one of 1024 processes (the E3m config):
/// paid `n` times at set-up and once per restart.
fn node_construct(out: &mut BTreeMap<String, f64>) {
    const REPS: usize = 16;
    let cfg = sweep_config();
    let mut us = Vec::new();
    for batch in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..REPS {
            black_box(CongosNode::with_config(
                ProcessId::new((batch * REPS + i) % 1024),
                1024,
                cfg.clone(),
            ));
        }
        us.push(ns_since(t0) / 1e3 / REPS as f64);
    }
    out.insert("congos.node.construct_us.n1024".into(), median(&us));
}

/// One 64-member `ContinuousGossip<u64>` group for 64 rounds, wires routed
/// by hand: a rumor to everyone is injected in each of the first 8 rounds.
fn gossip_service(out: &mut BTreeMap<String, f64>, seed: u64) {
    const N: usize = 64;
    const ROUNDS: u64 = 64;
    let mut rng = named_rng(seed, "benchmark.gossip");
    let (mut step_ns, mut recv_ns, mut wires_per_step) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let mut members: Vec<ContinuousGossip<u64>> = (0..N)
            .map(|i| {
                ContinuousGossip::new(ProcessId::new(i), N, GossipConfig::all(N, Tag("probe")))
            })
            .collect();
        let (mut step_total, mut recv_total, mut wires, mut receives) = (0.0, 0.0, 0u64, 0u64);
        for r in 0..ROUNDS {
            let now = Round(r);
            if r < 8 {
                members[r as usize].inject(now, r, 32, IdSet::full(N));
            }
            let t0 = Instant::now();
            let sent: Vec<Vec<(ProcessId, GossipWire<u64>)>> =
                members.iter_mut().map(|m| m.step(now, &mut rng)).collect();
            step_total += ns_since(t0);
            wires += sent.iter().map(|s| s.len() as u64).sum::<u64>();
            let t1 = Instant::now();
            for (src, batch) in sent.into_iter().enumerate() {
                for (dst, wire) in batch {
                    members[dst.as_usize()].on_receive(now, ProcessId::new(src), wire);
                    receives += 1;
                }
            }
            recv_total += ns_since(t1);
            for m in &mut members {
                black_box(m.take_delivered());
            }
        }
        let steps = (N as u64 * ROUNDS) as f64;
        step_ns.push(step_total / steps);
        recv_ns.push(recv_total / receives.max(1) as f64);
        wires_per_step.push(wires as f64 / steps);
    }
    out.insert("gossip.service.step_ns".into(), median(&step_ns));
    out.insert("gossip.service.on_receive_ns".into(), median(&recv_ns));
    out.insert(
        "gossip.service.wires_per_step".into(),
        median(&wires_per_step),
    );
}
