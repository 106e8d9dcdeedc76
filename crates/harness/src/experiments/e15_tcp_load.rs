//! **E15 — the TCP runtime under sustained injection.**
//!
//! Runs CONGOS as a [`Cluster`] of node threads over loopback TCP under a
//! [`PoissonWorkload`] and sorts every (rumor, destination) pair with
//! [`qod::classify`]; latency is the rounds from injection to the
//! destination's first delivery. The cluster delivers the engine's exact
//! trace (`tests/net_differential.rs`), so only the wall-clock columns vary
//! from run to run. Every node runs the confidentiality auditor, and a
//! violation fails the run.

use congos_adversary::{qod, InjectionLogEntry, PoissonWorkload, RumorSpec};
use congos_sim::{LivenessLog, Round, Topology, TopologySpec};

use crate::cluster::{materialize_injections, Cluster};
use crate::json::Json;
use crate::run::RunDefaults;
use crate::stats::{mean, percentile};
use crate::table::{rows_json, Table};

const ROUNDS: u64 = 90;
const SEED: u64 = 0xE15;

/// One row: `n` nodes on ports `base_port..base_port + n`. About two
/// rumors per round (48 B, deadline 64, 2 destinations) until round 26;
/// the rest of the run drains. On the complete topology every pair must be
/// on time.
fn row(n: usize, base_port: u16, topology: TopologySpec) -> Vec<String> {
    let mut workload = PoissonWorkload::new(2.0 / n as f64, 2, 64, SEED)
        .data_len(48)
        .until(Round(26));
    let specs: Vec<(u64, _, RumorSpec)> = materialize_injections(n, ROUNDS, &mut workload);
    let log: Vec<_> = specs
        .iter()
        .map(|(round, source, spec)| InjectionLogEntry {
            round: Round(*round),
            source: *source,
            spec: spec.clone(),
        })
        .collect();
    let schedule = specs.into_iter().map(|(r, s, spec)| (r, s, spec.into()));

    let t0 = std::time::Instant::now();
    let report = Cluster::new(n, base_port)
        .rounds(ROUNDS)
        .seed(SEED)
        .topology(topology)
        .run(schedule.collect())
        .unwrap_or_else(|e| panic!("E15 n = {n} on {topology}: cluster failed: {e}"));
    let wall_s = t0.elapsed().as_secs_f64();

    // No node crashes: a pair is exempt only if the topology cuts it off.
    let deliveries = report
        .deliveries
        .iter()
        .map(|d| (d.wid, d.process, d.round));
    let verdict = qod::classify(
        &log,
        deliveries,
        &LivenessLog::new(n),
        &Topology::build(topology, n, SEED),
    );
    if topology.is_complete() {
        verdict.assert_every_pair_on_time();
    }
    let (q, lat) = (verdict.summary, &verdict.latencies);
    let pairs = log.iter().map(|e| e.spec.dest.len()).sum();
    let mut row = vec![n.to_string(), topology.to_string()];
    let counts = [log.len(), pairs, q.on_time, q.late, q.missed, q.unreachable];
    row.extend(counts.map(|c| c.to_string()));
    row.extend([50.0, 90.0, 99.0, 100.0].map(|p| percentile(lat, p).to_string()));
    row.push(format!("{:.2}", mean(lat)));
    row.push(format!("{:.1}", wall_s * 1e3));
    row.push(format!("{:.1}", ROUNDS as f64 / wall_s));
    row.push(format!("{:.0}", q.on_time as f64 / wall_s));
    row.extend([report.messages, report.topology_drops].map(|c| c.to_string()));
    row
}

/// Runs E15: n = 4 quick; `full` adds n = 16 at the same per-round load.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let mut t = Table::new(
        "E15: the TCP runtime under sustained injection (loopback)",
        &[
            "n", "topology", "rumors", "pairs", "on_time", "late", "missed", "unreach", "p50",
            "p90", "p99", "max", "mean", "wall_ms", "rounds/s", "deliv/s", "msgs", "drops",
        ],
    );
    t.row(row(4, 20860, defaults.topology));
    if full {
        t.row(row(16, 20880, defaults.topology));
    }
    t.note("~2 rumors/round until round 26 of 90, 48 B, deadline 64, 2 destinations");
    t.note("p50..mean: rounds from injection to a destination's first delivery, on-time pairs");
    t.note("wall_ms, rounds/s and deliv/s (on-time deliveries/s) are wall clock");
    vec![t]
}

/// Renders E15 tables as the `BENCH_net_loadtest.json` row set.
pub fn bench_json(tables: &[Table]) -> Json {
    Json::object([
        ("suite", Json::from("net_loadtest")),
        ("rows", rows_json(tables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_quick_row_is_on_time_and_audited_clean() {
        // `Cluster::run` fails on any auditor violation and `run` asserts
        // every pair on time on the complete graph; this checks the row.
        let tables = run(false, &RunDefaults::default());
        let doc = bench_json(&tables);
        assert_eq!(doc["suite"].as_str(), Some("net_loadtest"));
        let rows = doc["rows"].as_array().expect("rows");
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r["n"].as_f64(), Some(4.0));
        let pairs = r["pairs"].as_f64().expect("pairs");
        assert!(pairs > 0.0, "an empty workload measures nothing");
        assert_eq!(r["on_time"].as_f64(), Some(pairs));
        for key in ["late", "missed", "unreach", "drops"] {
            assert_eq!(r[key].as_f64(), Some(0.0), "{key}");
        }
        let positive = [
            "p50", "p90", "p99", "max", "mean", "wall_ms", "rounds/s", "msgs",
        ];
        for key in positive {
            assert!(r[key].as_f64().is_some_and(|x| x > 0.0), "{key}");
        }
    }
}
