//! Allocation and wire guard for the TCP backend: heap bytes allocated and
//! bytes written to sockets per socket message of a small, failure-free
//! CONGOS cluster stay within budgets.
//!
//! Every gossip push resends the sender's whole active set, so a node
//! receives the same rumors from every peer, round after round. The
//! allocation budget fails if a node decodes bytes it already decoded
//! instead of reusing them; the wire budget fails if a node sends a peer a
//! rumor's bytes again instead of referring to them. (This run's frames are
//! too small for read-buffer growth to show.) The counting allocator of
//! `harness::mem` is process-wide, so this binary holds exactly one test.
//! The run spans the whole cluster (connect, the node threads, the report),
//! and socket timing moves the allocation count a little from run to run;
//! see `MEASURED`. The wire bytes follow from the sends alone.

use confidential_gossip::adversary::{NoFailures, PoissonWorkload};
use confidential_gossip::congos::CongosNode;
use confidential_gossip::harness::{mem, run, RunSpec};
use confidential_gossip::sim::Round;

/// Bytes allocated per socket message by the run below (≈ 2 040 B over
/// 11 234 messages; runs spread by ±1 %), measured with one rumor-reusing
/// decoder per node. Decoding every rumor of every push in full, the same
/// run allocated ≈ 8 120 B/msg, which fails the budget.
const MEASURED: f64 = 2040.0;

/// Bytes written to sockets per socket message by the run below, round
/// markers included, with each rumor's bytes sent to a peer once. Sending
/// every rumor of every push in full, the same run wrote ≈ 4 956 B/msg,
/// which fails the budget.
const MEASURED_WIRE: f64 = 948.3;

#[test]
fn tcp_cluster_allocates_within_budget_per_message() {
    let (n, rounds, seed) = (8, 120, 5);
    let workload = PoissonWorkload::new(0.1, 2, 64, seed).until(Round(rounds - 64));
    let spec = RunSpec::new(n, seed, rounds).net(22600);

    let before = mem::bytes_allocated();
    let out = run::<CongosNode, _, _>(spec, NoFailures, workload);
    let allocated = mem::bytes_allocated() - before;

    assert!(
        out.qod.perfect(),
        "a failure-free run is on time: {:?}",
        out.qod
    );
    let net = out.net.expect("a networked run");
    let msgs = net.messages;
    assert!(msgs > 0, "the workload sent nothing");
    let per_msg = allocated as f64 / msgs as f64;
    let wire_per_msg = net.wire.bytes_out as f64 / msgs as f64;
    eprintln!(
        "net_alloc_budget: {allocated} B over {msgs} msgs = {per_msg:.1} B/msg; \
         {} wire B = {wire_per_msg:.1} B/msg",
        net.wire.bytes_out
    );
    let budget = 1.25 * MEASURED;
    assert!(
        per_msg <= budget,
        "{per_msg:.1} B/msg allocated, budget {budget:.1} (1.25 × {MEASURED})"
    );
    let wire_budget = 1.25 * MEASURED_WIRE;
    assert!(
        wire_per_msg <= wire_budget,
        "{wire_per_msg:.1} B/msg written, budget {wire_budget:.1} (1.25 × {MEASURED_WIRE})"
    );
}
