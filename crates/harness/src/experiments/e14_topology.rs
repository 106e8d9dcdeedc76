//! **E14 — beyond the complete graph: QoD and message complexity vs
//! topology.**
//!
//! The paper's guarantees are proved on a reliable complete network. This
//! experiment measures what survives on sparser and churning topologies:
//! CONGOS and the baselines run unchanged while the engine's delivery
//! phase drops every envelope whose link is absent that round
//! (`sim::topology`). Three regimes are swept:
//!
//! * `complete` — the paper's model; every protocol must keep perfect QoD
//!   (this row doubles as a regression check that the topology layer adds
//!   no behavioral change on the default path);
//! * `expander:d` — static random d-regular graphs: degree buys
//!   reachability, and protocols that spray point-to-point messages across
//!   the whole id space (direct unicast, CONGOS proxies) degrade fastest;
//! * `churn:p` — per-round seeded edge flips over the complete graph: the
//!   *dynamic gossip* regime, where links vanish and reappear every round.
//!
//! Pairs with no temporal path inside the deadline window are exempted as
//! `unreach` (see [`QodSummary::unreachable`](crate::QodSummary)); `missed`
//! therefore counts only pairs some protocol *could* have served — an
//! honest measure of each protocol's topology sensitivity.

use congos::CongosNode;
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_baselines::DirectNode;
use congos_gossip::GossipNode;
use congos_sim::{Round, TopologySpec};

use crate::json::Json;
use crate::run::{run as run_system, RunDefaults, RunOutcome, RunSpec};
use crate::system::GossipSystem;
use crate::table::{rows_json, Table};

/// The topology sweep for one scale.
fn sweep(full: bool) -> Vec<TopologySpec> {
    let mut t = vec![
        TopologySpec::Complete,
        TopologySpec::Expander { degree: 4 },
        TopologySpec::Expander { degree: 8 },
        TopologySpec::churn(0.01),
        TopologySpec::churn(0.05),
        TopologySpec::churn(0.10),
    ];
    if full {
        t.push(TopologySpec::Expander { degree: 12 });
        t.push(TopologySpec::Churn {
            base_degree: Some(8),
            flip_ppm: 50_000,
        });
        t.push(TopologySpec::churn(0.25));
    }
    t
}

fn run_one<P>(spec: RunSpec, rounds: u64, deadline: u64) -> Vec<String>
where
    P: GossipSystem + Send,
    P::Msg: Send + Sync,
    P::Input: From<congos_adversary::RumorSpec> + Send,
    P::Output: Send,
{
    // Failure-free: E14 isolates the topology axis — the only exemptions in
    // these rows are topological (`unreach`), never crash-inadmissibility.
    let workload =
        PoissonWorkload::new(0.04, 3, deadline, spec.seed ^ 0xE14).until(Round(rounds - deadline));
    let out = run_system::<P, _, _>(spec, NoFailures, workload);
    row_of(spec.topology, &out)
}

fn row_of(topology: TopologySpec, out: &RunOutcome) -> Vec<String> {
    vec![
        topology.to_string(),
        out.name.to_string(),
        out.qod.admissible.to_string(),
        format!("{:.1}", 100.0 * out.qod.on_time_rate()),
        out.qod.late.to_string(),
        out.qod.missed.to_string(),
        out.qod.unreachable.to_string(),
        out.metrics.topology_drops().to_string(),
        out.metrics.max_per_round().to_string(),
        format!("{:.1}", out.metrics.mean_per_round()),
    ]
}

/// Runs E14 and returns its table.
///
/// The `complete` rows are asserted perfect — the topology layer must be
/// invisible on the paper's network. Sparse/churn rows are *measured*, not
/// asserted: degraded QoD off the complete graph is the finding, not a bug.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let n = if full { 32 } else { 16 };
    let rounds = if full { 384u64 } else { 192 };
    let deadline = 48u64;
    let seed = 0xE14;

    let mut t = Table::new(
        "E14: QoD and message complexity vs topology",
        &[
            "topology",
            "system",
            "admissible",
            "on_time%",
            "late",
            "missed",
            "unreach",
            "drops",
            "max_msgs/rd",
            "mean_msgs/rd",
        ],
    );
    for topology in sweep(full) {
        let spec = defaults.spec(n, seed, rounds).topology(topology);
        for row in [
            run_one::<CongosNode>(spec, rounds, deadline),
            run_one::<DirectNode>(spec, rounds, deadline),
            run_one::<GossipNode>(spec, rounds, deadline),
        ] {
            if topology.is_complete() {
                assert_eq!(row[4], "0", "complete/{}: late deliveries", row[1]);
                assert_eq!(row[5], "0", "complete/{}: missed deliveries", row[1]);
                assert_eq!(row[6], "0", "complete: unreachable pairs are impossible");
                assert_eq!(row[7], "0", "complete: the topology never drops");
            }
            t.row(row);
        }
    }
    t.note("complete rows are asserted perfect: the topology layer is invisible on the paper's network");
    t.note("unreach = alive pairs with no temporal path in the deadline window (exempt, like crash-inadmissible)");
    t.note("missed counts only pairs a protocol could have served; off-complete degradation is the measurement");
    vec![t]
}

/// Renders E14 tables as the `BENCH_topology.json` row set (one JSON object
/// per table row, keyed by column name).
pub fn bench_json(tables: &[Table]) -> Json {
    Json::object([
        ("suite", Json::from("topology")),
        ("rows", rows_json(tables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_complete_rows_are_perfect_and_sparse_rows_drop() {
        let tables = run(false, &RunDefaults::default());
        let t = &tables[0];
        // 6 topologies × 3 systems in the quick sweep.
        assert_eq!(t.len(), 18);
        // Row 0: complete/congos — perfect, no drops (asserted in run() too).
        assert_eq!(t.cell(0, 0), "complete");
        assert_eq!(t.cell(0, 3), "100.0");
        // Some sparse topology must actually drop messages, else the sweep
        // tests nothing.
        let total_drops: u64 = (0..t.len())
            .map(|r| t.cell(r, 7).parse::<u64>().unwrap())
            .sum();
        assert!(total_drops > 0, "no topology ever dropped a message");
        for r in 0..t.len() {
            let unreach: u64 = t.cell(r, 6).parse().unwrap();
            if t.cell(r, 0) == "complete" {
                assert_eq!(unreach, 0, "complete cannot have unreachable pairs");
            }
        }
    }

    #[test]
    fn e14_bench_json_row_set() {
        let tables = run(false, &RunDefaults::default());
        let doc = bench_json(&tables);
        let rows = doc["rows"].as_array().expect("rows array");
        assert_eq!(rows.len(), 18);
        assert_eq!(rows[0]["topology"].as_str(), Some("complete"));
        assert!(rows.iter().any(|r| r["system"].as_str() == Some("congos")));
    }
}
