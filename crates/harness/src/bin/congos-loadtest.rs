//! Load-tests the TCP cluster runtime: sustained rumor injection at a
//! configurable rate, reporting delivery-latency percentiles and
//! throughput.
//!
//! Runs an in-process cluster (one OS thread + socket pair per node — the
//! same transport the multi-process deployment uses) for `--rounds` rounds,
//! injecting `--rate` rumors per round (deterministically spread over
//! sources, each to a fresh random destination set) during the first
//! `--duration` rounds. Afterwards it classifies every (rumor, destination)
//! pair with `congos_adversary::qod::classify` (on time, late, missed or
//! unreachable), prints a human summary and writes the full report to
//! `results/BENCH_net_loadtest.json` (see `--out`).
//!
//! Exit status: nonzero if the cluster errored, or if nothing was
//! delivered — a load test that delivers zero rumors is a broken setup,
//! not a measurement.

use std::process::exit;

use congos::CongosInput;
use congos_adversary::qod::{self, QodSummary};
use congos_adversary::{InjectionLogEntry, RumorSpec};
use congos_harness::stats::{mean, percentile};
use congos_harness::{Cluster, Json};
use congos_sim::rng::fork_rng;
use congos_sim::{LivenessLog, ProcessId, Round, Topology, TopologySpec};
use rand::Rng;

const USAGE: &str = "usage: congos-loadtest [options]

Load-tests the CONGOS TCP cluster runtime and reports latency/throughput.

options:
  --n <n>                  cluster size (default 4)
  --base-port <p>          first port of the cluster range (default 20860)
  --rounds <r>             rounds to execute (default 90)
  --duration <r>           rounds during which rumors are injected
                           (default: rounds - deadline)
  --rate <k>               rumors injected per round (default 2)
  --payload <bytes>        payload size in bytes (default 48)
  --deadline <r>           rumor deadline class (default 64)
  --dests <k>              destinations per rumor (default 2)
  --seed <s>               master seed (default 0)
  --topology <spec>        complete | expander:<d> (default complete)
  --out <path>             report path (default
                           results/BENCH_net_loadtest.json)
  --help                   show this help";

fn usage_error(msg: &str) -> ! {
    eprintln!("congos-loadtest: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n: usize = 4;
    let mut base_port: u16 = 20860;
    let mut rounds: u64 = 90;
    let mut duration: Option<u64> = None;
    let mut rate: u64 = 2;
    let mut payload: usize = 48;
    let mut deadline: u64 = 64;
    let mut dests: usize = 2;
    let mut seed: u64 = 0;
    let mut topology = TopologySpec::Complete;
    let mut out_path = String::from("results/BENCH_net_loadtest.json");

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage_error(&format!("flag {flag} needs a value")));
        let parse_fail = || -> ! { usage_error(&format!("bad value {val:?} for {flag}")) };
        match flag.as_str() {
            "--n" => n = val.parse().unwrap_or_else(|_| parse_fail()),
            "--base-port" => base_port = val.parse().unwrap_or_else(|_| parse_fail()),
            "--rounds" => rounds = val.parse().unwrap_or_else(|_| parse_fail()),
            "--duration" => duration = Some(val.parse().unwrap_or_else(|_| parse_fail())),
            "--rate" => rate = val.parse().unwrap_or_else(|_| parse_fail()),
            "--payload" => payload = val.parse().unwrap_or_else(|_| parse_fail()),
            "--deadline" => deadline = val.parse().unwrap_or_else(|_| parse_fail()),
            "--dests" => dests = val.parse().unwrap_or_else(|_| parse_fail()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| parse_fail()),
            "--topology" => topology = val.parse().unwrap_or_else(|_| parse_fail()),
            "--out" => out_path = val.clone(),
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if n == 0 {
        usage_error("--n must be positive");
    }
    if dests == 0 || dests > n {
        usage_error(&format!("--dests must be in 1..={n}"));
    }
    // Leave the tail of the run free of new injections so in-flight rumors
    // can finish within their deadline.
    let duration = duration.unwrap_or(rounds.saturating_sub(deadline).max(1));

    // Deterministic injection schedule: `rate` rumors per round, sources
    // round-robin, destination sets drawn from a forked generator-RNG.
    // At most one injection per (process, round) — the model's rule — so
    // rate is capped at n.
    if rate as usize > n {
        usage_error(&format!(
            "--rate must be at most --n (one injection per process per round), got {rate} > {n}"
        ));
    }
    let mut rng = fork_rng(seed, ProcessId::new(0), u64::MAX);
    let mut injections = Vec::new();
    let mut wid = 0u64;
    for r in 0..duration {
        for s in 0..rate as usize {
            let source = ProcessId::new((r as usize * rate as usize + s) % n);
            let mut dest = Vec::with_capacity(dests);
            while dest.len() < dests {
                let d = ProcessId::new(rng.gen_range(0..n));
                if !dest.contains(&d) {
                    dest.push(d);
                }
            }
            dest.sort_unstable();
            injections.push((
                r,
                source,
                CongosInput {
                    wid,
                    data: vec![(wid % 251) as u8; payload],
                    deadline,
                    dest,
                },
            ));
            wid += 1;
        }
    }
    let injected = injections.len() as u64;
    let pairs: u64 = injections.iter().map(|(_, _, i)| i.dest.len() as u64).sum();
    // The injection log QoD is judged against (payloads are not needed).
    let log: Vec<InjectionLogEntry> = injections
        .iter()
        .map(|(r, source, i)| InjectionLogEntry {
            round: Round(*r),
            source: *source,
            spec: RumorSpec::new(i.wid, Vec::new(), i.deadline, i.dest.clone()),
        })
        .collect();

    println!(
        "congos-loadtest: {n} nodes, {rounds} rounds, {rate} rumors/round for \
         {duration} rounds ({injected} rumors, {pairs} pairs), payload {payload}B, \
         topology {topology}"
    );

    let t0 = std::time::Instant::now();
    let report = match Cluster::new(n, base_port)
        .rounds(rounds)
        .seed(seed)
        .topology(topology)
        .run(injections)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("congos-loadtest: cluster failed: {e}");
            exit(1);
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Every node stays up, so each pair is admissible unless the topology
    // leaves it unreachable. Latency per on-time (rumor, destination) pair:
    // rounds from injection to that destination's first delivery.
    let deliveries = report
        .deliveries
        .iter()
        .map(|o| (o.wid, o.process, o.round));
    let verdict = qod::classify(
        &log,
        deliveries,
        &LivenessLog::new(n),
        &Topology::build(topology, n, seed),
    );
    let QodSummary {
        on_time,
        late,
        missed,
        unreachable,
        ..
    } = verdict.summary;
    let latencies = verdict.latencies;
    let delivered_pairs = on_time as u64;

    if delivered_pairs == 0 {
        eprintln!("congos-loadtest: nothing was delivered — broken setup, not a measurement");
        exit(1);
    }

    let p50 = percentile(&latencies, 50.0);
    let p90 = percentile(&latencies, 90.0);
    let p99 = percentile(&latencies, 99.0);
    let max = percentile(&latencies, 100.0);
    let lat_mean = mean(&latencies);
    let delivery_rate = delivered_pairs as f64 / pairs as f64;
    let rounds_per_sec = rounds as f64 / (wall_ms / 1e3);
    let deliveries_per_sec = delivered_pairs as f64 / (wall_ms / 1e3);

    println!(
        "  delivered {delivered_pairs}/{pairs} pairs on time ({:.1}%; {late} late, \
         {missed} missed, {unreachable} unreachable), \
         latency p50/p90/p99/max = {p50}/{p90}/{p99}/{max} rounds (mean {lat_mean:.2})",
        delivery_rate * 100.0
    );
    println!(
        "  {wall_ms:.0} ms wall ({rounds_per_sec:.1} rounds/s, \
         {deliveries_per_sec:.0} deliveries/s), {} messages over sockets",
        report.messages
    );

    let doc = Json::object([
        (
            "config",
            Json::object([
                ("n", Json::from(n)),
                ("base_port", Json::from(base_port as u64)),
                ("rounds", Json::from(rounds)),
                ("duration", Json::from(duration)),
                ("rate", Json::from(rate)),
                ("payload", Json::from(payload)),
                ("deadline", Json::from(deadline)),
                ("dests", Json::from(dests)),
                ("seed", Json::from(seed)),
                ("topology", Json::from(topology.to_string())),
            ]),
        ),
        ("injected", Json::from(injected)),
        ("pairs", Json::from(pairs)),
        ("delivered_pairs", Json::from(delivered_pairs)),
        ("late", Json::from(late)),
        ("missed", Json::from(missed)),
        ("unreachable", Json::from(unreachable)),
        ("delivery_rate", Json::from(delivery_rate)),
        (
            "latency_rounds",
            Json::object([
                ("p50", Json::from(p50)),
                ("p90", Json::from(p90)),
                ("p99", Json::from(p99)),
                ("max", Json::from(max)),
                ("mean", Json::from(lat_mean)),
            ]),
        ),
        (
            "throughput",
            Json::object([
                ("wall_ms", Json::from(wall_ms)),
                ("rounds_per_sec", Json::from(rounds_per_sec)),
                ("deliveries_per_sec", Json::from(deliveries_per_sec)),
            ]),
        ),
        ("messages", Json::from(report.messages)),
        ("topology_drops", Json::from(report.topology_drops)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        Ok(()) => println!("  report written to {out_path}"),
        Err(e) => {
            eprintln!("congos-loadtest: cannot write {out_path}: {e}");
            exit(1);
        }
    }
}
