//! One benchmark for the whole system. See `benchmark/README.md`.
//!
//! ```text
//! congos-benchmark --workload W --seed S --seconds T --trace 0|1   one pass of one workload
//! congos-benchmark [--seed S] [--seconds T] [--repeat N]           every workload, both passes,
//!                                                                  each in its own child process
//! ```
//!
//! The last line of a one-workload run is a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when a correctness check failed.

mod pass;
mod probes;
mod report;
mod sim;
mod spec;
mod stats;
mod tcp;
mod trace;
mod unit;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

/// Where reports and traces are written, relative to the working directory
/// (the repository root, which is where the benchmark is run from).
pub const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: congos-benchmark [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--repeat N]
  --workload W   one of: sim_pipeline_n1024 sim_churn_n96 sim_collusion_n48 tcp_cluster_n8
                 (omitted: every workload, untraced then traced, each in a child process)
  --seed S       workload seed (default 7); reaches only the input generators
  --seconds T    measuring time per pass (default 16); fixes the number of units measured
  --trace 0|1    0: end-to-end metrics (default); 1: per-layer metrics, spans, probes
  --repeat N     with no --workload: run N full sets and compare them against BENCHMARK.json";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 16.0,
        traced: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("congos-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => pass::run(w, args.seed, args.seconds, args.traced),
        None => report::run_sets(args.seed, args.seconds, args.repeat),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("congos-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_harness::Json;
    use workloads::WORKLOADS;

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc[section]
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");

        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&spec::END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&spec::PER_LAYER));
        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        assert!(
            WORKLOADS.len() <= 8 && spec::END_TO_END.len() <= 16 && spec::PER_LAYER.len() <= 128
        );
        let mut names: Vec<&str> = ours.clone();
        names.extend(
            spec::END_TO_END
                .iter()
                .chain(&spec::PER_LAYER)
                .map(|(n, _)| *n),
        );
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!(spec::END_TO_END.contains(&("setup_s", "s")));
        for m in doc["end_to_end"].as_array().expect("end_to_end") {
            let bound = m["bound"].as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
        let command = doc["command"].as_array().expect("command");
        assert!(command
            .iter()
            .any(|c| c.as_str() == Some("benchmark/Cargo.toml")));
    }
}
