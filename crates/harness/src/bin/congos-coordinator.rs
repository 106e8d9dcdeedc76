//! Spawns and monitors a multi-process CONGOS cluster.
//!
//! Launches `n` `congos-node` processes on localhost, routes each `--inject`
//! to its source node (with disjoint `--wid-base` ranges so workload ids
//! stay unique cluster-wide), waits for every node, parses the per-node
//! JSON reports, and prints an aggregated cluster report.
//!
//! ```text
//! congos-coordinator --n 4 --rounds 70 --seed 7 \
//!     --inject 0:0:2,3:68656c6c6f      # round 0, source 0, dests {2,3}
//! ```
//!
//! The node binary is found next to this executable (both live in cargo's
//! target dir), or wherever `--node-bin` points.
//!
//! Failure behavior: nodes never hang on a dead peer (the transport's
//! barrier errors out), so the coordinator simply waits for every child;
//! if any exits nonzero it reports which and exits nonzero itself.

use std::process::{exit, Command, Stdio};

use congos_harness::Json;

const USAGE: &str = "usage: congos-coordinator --n <n> [options]

Spawns an n-process CONGOS cluster on localhost and aggregates its reports.

required:
  --n <n>                  cluster size

options:
  --base-port <p>          first port of the cluster range (default 19000)
  --rounds <r>             rounds to execute (default 70)
  --seed <s>               master seed (default 0)
  --topology <spec>        complete | expander:<d> | churn:<spec>
                           (default complete)
  --deadline <r>           deadline class of injected rumors (default 64)
  --inject <round>:<src>:<d1,d2,..>:<hex>
                           inject at <round> from node <src> for
                           destinations <d1,d2,..> with hex payload;
                           repeatable
  --node-bin <path>        the congos-node executable (default: sibling of
                           this binary)
  --json                   print the aggregate as one JSON line
  --help                   show this help";

fn usage_error(msg: &str) -> ! {
    eprintln!("congos-coordinator: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

/// Locates the node binary: `--node-bin`, else a `congos-node` next to the
/// running executable.
fn node_bin(explicit: Option<String>) -> std::path::PathBuf {
    if let Some(p) = explicit {
        return p.into();
    }
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("congos-node")));
    match sibling {
        Some(p) if p.exists() => p,
        _ => usage_error(
            "cannot find the congos-node binary; build it (cargo build -p congos-net) \
             and/or pass --node-bin",
        ),
    }
}

struct Injection {
    round: u64,
    src: usize,
    dests: String,
    hex: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n: Option<usize> = None;
    let mut base_port: u16 = 19000;
    let mut rounds: u64 = 70;
    let mut seed: u64 = 0;
    let mut deadline: u64 = 64;
    let mut topology = String::from("complete");
    let mut json = false;
    let mut bin: Option<String> = None;
    let mut injections: Vec<Injection> = Vec::new();

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        if flag == "--json" {
            json = true;
            continue;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage_error(&format!("flag {flag} needs a value")));
        let parse_fail = || -> ! { usage_error(&format!("bad value {val:?} for {flag}")) };
        match flag.as_str() {
            "--n" => n = Some(val.parse().unwrap_or_else(|_| parse_fail())),
            "--base-port" => base_port = val.parse().unwrap_or_else(|_| parse_fail()),
            "--rounds" => rounds = val.parse().unwrap_or_else(|_| parse_fail()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| parse_fail()),
            "--deadline" => deadline = val.parse().unwrap_or_else(|_| parse_fail()),
            "--topology" => topology = val.clone(),
            "--node-bin" => bin = Some(val.clone()),
            "--inject" => {
                let parts: Vec<&str> = val.splitn(4, ':').collect();
                if parts.len() != 4 {
                    usage_error(&format!(
                        "--inject wants <round>:<src>:<d1,d2,..>:<hex>, got {val:?}"
                    ));
                }
                injections.push(Injection {
                    round: parts[0].parse().unwrap_or_else(|_| parse_fail()),
                    src: parts[1].parse().unwrap_or_else(|_| parse_fail()),
                    dests: parts[2].to_string(),
                    hex: parts[3].to_string(),
                });
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    let Some(n) = n else { usage_error("--n is required") };
    if n == 0 {
        usage_error("--n must be positive");
    }
    for inj in &injections {
        if inj.src >= n {
            usage_error(&format!("--inject source {} out of range for --n {n}", inj.src));
        }
    }
    let bin = node_bin(bin);

    // Spawn every node; node i's injections get wid base i * per_node_cap
    // so ids are disjoint across sources.
    let per_node_cap = injections.len() as u64 + 1;
    let mut children = Vec::with_capacity(n);
    for id in 0..n {
        let mut cmd = Command::new(&bin);
        cmd.arg("--id")
            .arg(id.to_string())
            .arg("--n")
            .arg(n.to_string())
            .arg("--base-port")
            .arg(base_port.to_string())
            .arg("--rounds")
            .arg(rounds.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--topology")
            .arg(&topology)
            .arg("--deadline")
            .arg(deadline.to_string())
            .arg("--wid-base")
            .arg((id as u64 * per_node_cap).to_string())
            .arg("--json");
        for inj in injections.iter().filter(|i| i.src == id) {
            cmd.arg("--inject")
                .arg(format!("{}:{}:{}", inj.round, inj.dests, inj.hex));
        }
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("congos-coordinator: failed to spawn node {id}: {e}");
                // Already-spawned nodes will error out at the connect
                // deadline on their own; don't leave them running longer.
                for mut c in children {
                    let _ = c.kill();
                }
                exit(1);
            }
        }
    }

    // Nodes never hang on peer loss (transport barriers error out), so a
    // plain wait per child terminates. Collect reports; remember failures.
    let mut failures = Vec::new();
    let mut reports = Vec::new();
    for (id, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .unwrap_or_else(|e| panic!("waiting for node {id}: {e}"));
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            failures.push((id, out.status, stderr.trim().to_string()));
            continue;
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The report is the last line that parses as a JSON object.
        let report = stdout
            .lines()
            .rev()
            .find_map(|l| Json::parse(l.trim()).ok());
        match report {
            Some(r) => reports.push(r),
            None => failures.push((
                id,
                out.status,
                "exited 0 but printed no JSON report".to_string(),
            )),
        }
    }

    if !failures.is_empty() {
        for (id, status, stderr) in &failures {
            eprintln!("congos-coordinator: node {id} failed ({status}): {stderr}");
        }
        exit(1);
    }

    // Aggregate: counters sum, rounds max, deliveries pool sorted by
    // (round, process) — the same shape NetReport::aggregate produces.
    let mut messages = 0.0;
    let mut topology_drops = 0.0;
    let mut max_rounds = 0.0f64;
    let mut deliveries: Vec<(f64, f64, f64, f64)> = Vec::new(); // (round, process, wid, bytes)
    for r in &reports {
        messages += r["messages"].as_f64().unwrap_or(0.0);
        topology_drops += r["topology_drops"].as_f64().unwrap_or(0.0);
        max_rounds = max_rounds.max(r["rounds"].as_f64().unwrap_or(0.0));
        if let Some(ds) = r["deliveries"].as_array() {
            for d in ds {
                deliveries.push((
                    d["round"].as_f64().unwrap_or(0.0),
                    d["process"].as_f64().unwrap_or(0.0),
                    d["wid"].as_f64().unwrap_or(0.0),
                    d["bytes"].as_f64().unwrap_or(0.0),
                ));
            }
        }
    }
    deliveries.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    if json {
        let rows: Vec<Json> = deliveries
            .iter()
            .map(|&(round, process, wid, bytes)| {
                Json::object([
                    ("round", Json::Number(round)),
                    ("process", Json::Number(process)),
                    ("wid", Json::Number(wid)),
                    ("bytes", Json::Number(bytes)),
                ])
            })
            .collect();
        let doc = Json::object([
            ("n", Json::from(n)),
            ("rounds", Json::Number(max_rounds)),
            ("messages", Json::Number(messages)),
            ("topology_drops", Json::Number(topology_drops)),
            ("deliveries", Json::Array(rows)),
        ]);
        println!("{}", doc.to_string_compact());
    } else {
        println!(
            "cluster of {n} nodes ran {max_rounds} rounds: {} deliveries, \
             {messages} messages over sockets, {topology_drops} topology drops",
            deliveries.len()
        );
        for (round, process, wid, bytes) in &deliveries {
            println!("round {round} process p{process} delivered wid={wid} ({bytes} bytes)");
        }
    }
}
