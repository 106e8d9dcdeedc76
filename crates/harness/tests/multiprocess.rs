//! True multi-process deployment: one OS process per node via the
//! `congos-node` binary, started by hand or by `congos-node` itself, and
//! the rumor crossing process boundaries.

use std::net::TcpListener;
use std::process::{Command, Stdio};

use congos_harness::{ClusterReport, Json};

const BIN: &str = env!("CARGO_BIN_EXE_congos-node");

#[test]
fn four_os_processes_deliver_a_rumor() {
    let n = 4;
    let base_port = 19400;
    let mut children = Vec::new();
    for id in 0..n {
        let mut cmd = Command::new(BIN);
        cmd.args([
            "--id",
            &id.to_string(),
            "--n",
            &n.to_string(),
            "--base-port",
            &base_port.to_string(),
            "--rounds",
            "70",
            "--seed",
            "9",
            // "hi!" from process 0 to processes 2 and 3, injected at round 0.
            "--inject",
            "0:0:2,3:686921",
        ]);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        children.push((id, cmd.spawn().expect("spawn node")));
    }

    let mut delivered = Vec::new();
    for (id, child) in children {
        let out = child.wait_with_output().expect("node exits");
        assert!(
            out.status.success(),
            "node {id} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            if line.contains("delivered wid=0") {
                delivered.push(id);
            }
        }
    }
    delivered.sort_unstable();
    assert_eq!(
        delivered,
        vec![2, 3],
        "exactly the two destinations deliver"
    );
}

/// Without `--id`, `congos-node` runs every node as a child process and
/// prints their merged report.
#[test]
fn one_command_runs_the_whole_cluster() {
    let out = Command::new(BIN)
        .args([
            "--n",
            "4",
            "--base-port",
            "19420",
            "--rounds",
            "70",
            "--seed",
            "9",
        ])
        .args(["--json", "--inject", "0:0:2,3:686921"])
        .output()
        .expect("cluster runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.trim()).expect("one JSON line");
    let report = ClusterReport::from_json(&doc).expect("a cluster report");
    let mut delivered: Vec<_> = report
        .deliveries
        .iter()
        .map(|d| (d.process.as_usize(), d.wid, d.data.as_slice()))
        .collect();
    delivered.sort_unstable();
    assert_eq!(delivered, [(2, 0, &b"hi!"[..]), (3, 0, &b"hi!"[..])]);
    assert!(report.messages > 0);
}

/// A node that cannot bind its port fails, and the parent exits 1 naming it.
#[test]
fn a_failed_node_fails_the_cluster_and_is_named() {
    let base_port = 19440;
    let _held = TcpListener::bind(("127.0.0.1", base_port + 1)).expect("hold node 1's port");
    let out = Command::new(BIN)
        .args([
            "--n",
            "2",
            "--base-port",
            &base_port.to_string(),
            "--rounds",
            "3",
        ])
        .output()
        .expect("cluster runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("node 1 failed"), "{stderr}");
    assert!(stderr.contains("bind 127.0.0.1:19441"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// Cluster parameters no run could honour are refused before any socket is
/// bound, with the diagnostic and exit status of a usage error.
#[test]
fn impossible_clusters_exit_2_naming_the_value() {
    for (args, needle) in [
        (&["--n", "0"][..], "n = 0"),
        (
            &["--id", "0", "--n", "4", "--topology", "expander:4"],
            "expander:4",
        ),
        (&["--n", "4", "--base-port", "65535"], "base port 65535"),
        (&["--id", "4", "--n", "4"], "node id 4"),
    ] {
        let out = Command::new(BIN).args(args).output().expect("node runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A schedule the node could not honour is refused up front, not silently
/// thinned: a second injection in one round used to shadow every later one.
#[test]
fn invalid_injection_schedule_exits_nonzero_with_a_diagnostic() {
    for (base_port, injects, needle) in [
        (
            "19460",
            &["0:0:0:aa", "0:0:0:bb", "2:0:0:cc"][..],
            "two injections at p0 in round 0",
        ),
        ("19461", &["0:0:0:aa", "3:0:0:bb"][..], "round 3 is outside"),
    ] {
        let mut cmd = Command::new(BIN);
        cmd.args(["--id", "0", "--n", "1", "--rounds", "3"]);
        cmd.args(["--base-port", base_port]);
        for inject in injects {
            cmd.args(["--inject", inject]);
        }
        let out = cmd.output().expect("node runs");
        assert_eq!(out.status.code(), Some(1), "{injects:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{injects:?}: {stderr}");
        assert!(out.stdout.is_empty(), "no round ran: {injects:?}");
    }
}
