//! A CONGOS cluster over localhost TCP, one OS process per node.
//!
//! With `--id i` this process is node `i`: it finds its peers on
//! `base-port..base-port+n`, runs the protocol in bulk-synchronous rounds
//! and reports its deliveries. Without `--id` it is the whole cluster: it
//! re-executes itself once per node with its own arguments plus `--id i`,
//! waits for every node and merges their reports. Every node is given the
//! same `--inject` list and makes the injections whose source it is; an
//! injection's workload id is its position in that list.
//!
//! ```text
//! congos-node --n 4 --rounds 70 --inject 0:0:2,3:68656c6c6f   # round 0, source 0,
//!                                                              # dests {2,3}, "hello"
//! congos-node --id 2 --n 4 --rounds 70 --inject 0:0:2,3:68656c6c6f   # node 2 only
//! ```
//!
//! Exit status: 2 for a malformed flag or an impossible cluster (`--n 0`, a
//! topology infeasible at `--n`, a port range past 65535, `--id` ≥ `--n`);
//! 1 if a node fails — a bind failure, an unreachable or lost peer, a
//! schedule it cannot honour, or a confidentiality violation its auditor
//! found — with a diagnostic naming every failed node.
//! The transport's barrier never hangs on a dead peer.

use std::process::{exit, Command, Stdio};

use congos::CongosInput;
use congos_harness::cluster::unhex;
use congos_harness::{Cluster, ClusterReport, Json};
use congos_sim::{ProcessId, TopologySpec};

const USAGE: &str = "usage: congos-node --n <n> [--id <i>] [options]

Runs an n-node CONGOS cluster over localhost TCP: node <i> with --id,
otherwise every node, each as a child process.

required:
  --n <n>                  cluster size

options:
  --id <i>                 run node <i> only (0-based)
  --base-port <p>          first port of the cluster range; node i listens
                           on p+i (default 19000)
  --rounds <r>             rounds to execute (default 70)
  --seed <s>               master seed, must match across the cluster
                           (default 0)
  --topology <spec>        complete | expander:<d> | churn:<spec>
                           (default complete)
  --deadline <r>           deadline class of injected rumors (default 64)
  --inject <round>:<src>:<d1,d2,..>:<hex>
                           inject at <round> from node <src> for
                           destinations <d1,d2,..> with hex payload; the
                           workload id is the injection's position among
                           the --inject flags; repeatable
  --json                   print the report as one JSON line
  --help                   show this help";

fn usage_error(msg: &str) -> ! {
    eprintln!("congos-node: {msg}");
    eprintln!("{USAGE}");
    exit(2)
}

/// `<round>:<src>:<d1,d2,..>:<hex>`.
fn parse_injection(s: &str) -> Option<(u64, ProcessId, Vec<ProcessId>, Vec<u8>)> {
    let [round, src, dest, hex] = s.splitn(4, ':').collect::<Vec<_>>()[..] else {
        return None;
    };
    let pid = |p: &str| p.parse::<u32>().ok().map(|p| ProcessId::new(p as usize));
    let dest = dest.split(',').map(pid).collect::<Option<_>>()?;
    Some((round.parse().ok()?, pid(src)?, dest, unhex(hex)?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<usize> = None;
    let mut n: Option<usize> = None;
    let mut base_port: u16 = 19000;
    let mut rounds: u64 = 70;
    let mut seed: u64 = 0;
    let mut deadline: u64 = 64;
    let mut topology = TopologySpec::Complete;
    let mut json = false;
    let mut raw_injections = Vec::new();

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
            "--id" => id = Some(val.parse().unwrap_or_else(|_| parse_fail())),
            "--n" => n = Some(val.parse().unwrap_or_else(|_| parse_fail())),
            "--base-port" => base_port = val.parse().unwrap_or_else(|_| parse_fail()),
            "--rounds" => rounds = val.parse().unwrap_or_else(|_| parse_fail()),
            "--seed" => seed = val.parse().unwrap_or_else(|_| parse_fail()),
            "--deadline" => deadline = val.parse().unwrap_or_else(|_| parse_fail()),
            "--topology" => topology = val.parse().unwrap_or_else(|_| parse_fail()),
            "--inject" => raw_injections.push(parse_injection(val).unwrap_or_else(|| {
                usage_error(&format!(
                    "--inject wants <round>:<src>:<d1,d2,..>:<hex>, got {val:?}"
                ))
            })),
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    let Some(n) = n else {
        usage_error("--n is required")
    };
    let cluster = Cluster::new(n, base_port)
        .rounds(rounds)
        .seed(seed)
        .topology(topology);
    if let Err(e) = cluster.validate(id) {
        eprintln!("congos-node: {e}");
        exit(2);
    }

    let report = match id {
        Some(id) => {
            let injections = raw_injections
                .into_iter()
                .enumerate()
                .map(|(wid, (round, src, dest, data))| {
                    let wid = wid as u64;
                    (
                        round,
                        src,
                        CongosInput {
                            wid,
                            data,
                            deadline,
                            dest,
                        },
                    )
                })
                .collect();
            cluster.run_node(id, injections).unwrap_or_else(|e| {
                eprintln!("congos-node: node {id} failed: {e}");
                exit(1)
            })
        }
        None => run_children(n, &args),
    };
    if json {
        println!("{}", report.to_json().to_string_compact());
        return;
    }
    println!(
        "{} rounds: {} deliveries, {} messages over sockets, {} topology drops",
        report.rounds,
        report.deliveries.len(),
        report.messages,
        report.topology_drops
    );
    for d in &report.deliveries {
        println!(
            "round {} process {} delivered wid={} ({} bytes)",
            d.round.as_u64(),
            d.process,
            d.wid,
            d.data.len()
        );
    }
}

/// Runs node `i` of `0..n` as a child `congos-node --id i --json` with this
/// process's arguments, and merges the children's reports; exits 1 naming
/// every node that failed.
fn run_children(n: usize, args: &[String]) -> ClusterReport {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("congos-node: cannot locate this executable: {e}");
        exit(1)
    });
    let mut children = Vec::with_capacity(n);
    for id in 0..n {
        let spawned = Command::new(&exe)
            .args(args)
            .args(["--id", &id.to_string(), "--json"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("congos-node: cannot spawn node {id}: {e}");
                for mut child in children {
                    let _ = child.kill();
                }
                exit(1);
            }
        }
    }

    // A node prints only after its last barrier, so waiting for the nodes
    // one by one cannot stall the cluster on a full pipe.
    let mut reports = Vec::with_capacity(n);
    let mut failed = false;
    for (id, child) in children.into_iter().enumerate() {
        let report = match child.wait_with_output() {
            Err(e) => Err(format!("cannot wait for it: {e}")),
            Ok(out) if !out.status.success() => Err(format!(
                "{}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )),
            Ok(out) => String::from_utf8_lossy(&out.stdout)
                .lines()
                .rev()
                .find_map(|line| Json::parse(line).ok())
                .ok_or_else(|| "exited 0 but printed no JSON report".to_string())
                .and_then(|doc| ClusterReport::from_json(&doc)),
        };
        match report {
            Ok(report) => reports.push(report),
            Err(why) => {
                eprintln!("congos-node: node {id} failed ({why})");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
    ClusterReport::merge(reports)
}
