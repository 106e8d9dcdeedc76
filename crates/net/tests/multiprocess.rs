//! True multi-process deployment: spawn one OS process per node via the
//! `congos-node` binary and check the rumor crosses process boundaries.

use std::process::{Command, Stdio};

#[test]
fn four_os_processes_deliver_a_rumor() {
    let bin = env!("CARGO_BIN_EXE_congos-node");
    let n = 4;
    let base_port = 19400;
    let mut children = Vec::new();
    for id in 0..n {
        let mut cmd = Command::new(bin);
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
        ]);
        if id == 0 {
            // "hi!" to processes 2 and 3, injected at round 0.
            cmd.args(["--inject", "0:2,3:686921"]);
        }
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
    assert_eq!(delivered, vec![2, 3], "exactly the two destinations deliver");
}

/// A schedule the node could not honour is refused up front, not silently
/// thinned: a second injection in one round used to shadow every later one.
#[test]
fn invalid_injection_schedule_exits_nonzero_with_a_diagnostic() {
    let bin = env!("CARGO_BIN_EXE_congos-node");
    for (base_port, injects, needle) in [
        (
            "19460",
            &["0:0:aa", "0:0:bb", "2:0:cc"][..],
            "two injections at p0 in round 0",
        ),
        ("19461", &["0:0:aa", "3:0:bb"][..], "round 3 is outside"),
    ] {
        let mut cmd = Command::new(bin);
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
