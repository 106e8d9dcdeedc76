//! One module per experiment (ids match DESIGN.md §4 and EXPERIMENTS.md),
//! and the [`REGISTRY`] table the `exp` binary dispatches over.

pub mod e10_metadata_hiding;
pub mod e11_communication;
pub mod e12_adaptivity;
pub mod e13_anonymity;
pub mod e14_topology;
pub mod e15_tcp_load;
pub mod e1_strong_confidentiality;
pub mod e2_correctness;
pub mod e3_complexity;
pub mod e3_memory;
pub mod e4_partitions;
pub mod e5_collusion_lb;
pub mod e6_collusion_cost;
pub mod e7_churn;
pub mod e8_baselines;
pub mod e9_ablation;

use crate::json::Json;
use crate::run::RunDefaults;
use crate::table::Table;

/// The one shape every experiment entry point has: `run(full, defaults)`.
pub type RunFn = fn(bool, &RunDefaults) -> Vec<Table>;

/// A `BENCH_*.json` row set an experiment emits next to its tables.
#[derive(Clone, Copy)]
pub struct Bench {
    /// Default output path, relative to the repo root (`--json` overrides).
    pub path: &'static str,
    /// Renders the experiment's tables as the row-set document.
    pub json: fn(&[Table]) -> Json,
}

/// One row of the experiment registry.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Command-line name (`exp <name>`).
    pub name: &'static str,
    /// The claim it measures, as listed by `exp --list`.
    pub claim: &'static str,
    /// Entry point.
    pub run: RunFn,
    /// Whether `--topology` reaches every run: `true` when every run goes
    /// through [`crate::run()`] or a [`crate::Cluster`]; `false` when the experiment drives the
    /// engine directly on the paper's complete network, runs no protocol
    /// at all (E4's combinatorics), or sweeps the topology itself. `exp`
    /// rejects a flag the selected experiment would ignore.
    pub honours_topology: bool,
    /// The bench row set it writes, if any.
    pub bench: Option<Bench>,
    /// `true` for the memory sweep: it measures process-wide peak RSS, so it
    /// takes `--budget-mib` and is left out of the concurrent `exp all`.
    pub measures_rss: bool,
}

const fn row(
    name: &'static str,
    claim: &'static str,
    run: RunFn,
    honours_topology: bool,
) -> Experiment {
    Experiment {
        name,
        claim,
        run,
        honours_topology,
        bench: None,
        measures_rss: false,
    }
}

/// Every experiment, in EXPERIMENTS.md order.
pub const REGISTRY: &[Experiment] = &[
    row(
        "e1",
        "E1: Theorem 1 — the price of strong confidentiality",
        e1_strong_confidentiality::run,
        true,
    ),
    row(
        "e2",
        "E2: Theorem 2 — confidentiality + Quality of Delivery, always",
        e2_correctness::run,
        false,
    ),
    row(
        "e3",
        "E3: Lemma 7 / Theorem 11 — per-round message complexity",
        e3_complexity::run,
        true,
    ),
    Experiment {
        bench: Some(Bench {
            path: "results/BENCH_memory.json",
            json: e3_memory::bench_json,
        }),
        measures_rss: true,
        ..row(
            "e3m",
            "E3m: memory accounting of the high-n complexity sweeps",
            e3_memory::run,
            true,
        )
    },
    row(
        "e4",
        "E4: Lemma 5 / Lemma 13 — partition goodness",
        e4_partitions::run,
        false,
    ),
    row(
        "e5",
        "E5: Theorem 12 — collusion lower bound (border messages)",
        e5_collusion_lb::run,
        false,
    ),
    row(
        "e6",
        "E6: Theorem 16 — the tau^2 cost of collusion tolerance",
        e6_collusion_cost::run,
        true,
    ),
    row(
        "e7",
        "E7: Robustness — QoD and fallback rate under churn",
        e7_churn::run,
        false,
    ),
    row(
        "e8",
        "E8: Alternative approaches — CONGOS vs direct/crypto/epidemic",
        e8_baselines::run,
        true,
    ),
    row(
        "e9",
        "E9: Ablations — partitions, fanout constants, substrate strategy",
        e9_ablation::run,
        false,
    ),
    row(
        "e10",
        "E10: Section 7 — metadata-hiding costs",
        e10_metadata_hiding::run,
        true,
    ),
    row(
        "e11",
        "E11: Section 7 — communication complexity in bytes",
        e11_communication::run,
        true,
    ),
    row(
        "e12",
        "E12: Section 7 — adaptive vs oblivious adversary power",
        e12_adaptivity::run,
        false,
    ),
    Experiment {
        bench: Some(Bench {
            path: "results/BENCH_anonymity.json",
            json: e13_anonymity::bench_json,
        }),
        ..row(
            "e13",
            "E13: Source anonymity — who started this rumor, and can CONGOS hide it?",
            e13_anonymity::run,
            false,
        )
    },
    Experiment {
        bench: Some(Bench {
            path: "results/BENCH_topology.json",
            json: e14_topology::bench_json,
        }),
        ..row(
            "e14",
            "E14: Beyond the complete graph — QoD/complexity vs topology",
            e14_topology::run,
            false,
        )
    },
    Experiment {
        bench: Some(Bench {
            path: "results/BENCH_net_loadtest.json",
            json: e15_tcp_load::bench_json,
        }),
        ..row(
            "e15",
            "E15: the TCP runtime under sustained injection: QoD, latency and throughput over loopback",
            e15_tcp_load::run,
            true,
        )
    },
];

/// Looks an experiment up by its command-line name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The `exp --list` text: one `name  claim` line per registry row.
pub fn list() -> String {
    REGISTRY
        .iter()
        .map(|e| format!("{:<4} {}\n", e.name, e.claim))
        .collect()
}

/// Runs every experiment that can share a process (all but the RSS sweep)
/// at the given scale and returns all tables.
///
/// Experiments are deterministic and independent, so they execute on
/// parallel threads; the returned tables keep the registry order.
pub fn run_all(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = REGISTRY
            .iter()
            .filter(|e| !e.measures_rss)
            .map(|e| scope.spawn(move || (e.run)(full, defaults)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_sixteen_distinct_experiments() {
        // E1–E15 and E3m, each findable by name, each on its own `--list` line.
        let wanted = (1..=15).map(|i| format!("e{i}")).chain(["e3m".to_string()]);
        let mut names: Vec<String> = wanted.collect();
        let mut listed: Vec<String> = REGISTRY.iter().map(|e| e.name.to_string()).collect();
        names.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, names);
        for (e, line) in REGISTRY.iter().zip(list().lines()) {
            assert!(
                line.starts_with(e.name) && line.ends_with(e.claim),
                "{line}"
            );
            assert_eq!(find(e.name).map(|f| f.claim), Some(e.claim));
        }
        assert!(find("e16").is_none());
        // Exactly the four bench emitters, on their committed default paths.
        let paths: Vec<&str> = REGISTRY
            .iter()
            .filter_map(|e| e.bench.map(|b| b.path))
            .collect();
        assert_eq!(
            paths,
            [
                "results/BENCH_memory.json",
                "results/BENCH_anonymity.json",
                "results/BENCH_topology.json",
                "results/BENCH_net_loadtest.json"
            ]
        );
    }

    #[test]
    fn every_entry_point_has_the_one_run_shape() {
        // That `REGISTRY` compiles is the type-level check (each row's
        // `run` is a `RunFn`); the cheapest row also runs through the
        // pointer with the default defaults.
        let e4 = find("e4").expect("e4");
        assert!(!(e4.run)(false, &RunDefaults::default()).is_empty());
    }
}
