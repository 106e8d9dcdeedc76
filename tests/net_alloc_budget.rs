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
//! The workload is materialized into a schedule first; the measured span is
//! one `Cluster::run` (connect, the node threads, the merged report), and
//! socket timing moves the allocation count a little from run to run; see
//! `MEASURED`. The wire bytes follow from the sends alone.

use confidential_gossip::adversary::PoissonWorkload;
use confidential_gossip::congos::CongosInput;
use confidential_gossip::harness::{materialize_injections, mem, Cluster};
use confidential_gossip::sim::{ProcessId, Round};

/// Bytes allocated per socket message by `Cluster::run` below (≈ 2 035 B
/// over 11 234 messages; runs spread by ±1 %), measured with one
/// rumor-reusing decoder per node. Decoding every rumor of every push in
/// full, the same run allocated ≈ 8 120 B/msg, which fails the budget.
const MEASURED: f64 = 2035.0;

/// Bytes written to sockets per socket message by the run below, round
/// markers included, with each rumor's bytes sent to a peer once. Sending
/// every rumor of every push in full, the same run wrote ≈ 4 956 B/msg,
/// which fails the budget.
const MEASURED_WIRE: f64 = 948.3;

#[test]
fn tcp_cluster_allocates_within_budget_per_message() {
    let (n, rounds, seed) = (8, 120, 5);
    let mut workload = PoissonWorkload::new(0.1, 2, 64, seed).until(Round(rounds - 64));
    let schedule: Vec<(u64, ProcessId, CongosInput)> =
        materialize_injections(n, rounds, &mut workload);
    let cluster = Cluster::new(n, 22600).seed(seed).rounds(rounds);

    let before = mem::bytes_allocated();
    let report = cluster.run(schedule.clone()).expect("cluster run");
    let allocated = mem::bytes_allocated() - before;

    // A failure-free run on the complete graph is on time: every scheduled
    // (rumor, destination) pair is delivered by its deadline.
    for (round, _, input) in &schedule {
        for &dest in &input.dest {
            assert!(
                report.deliveries.iter().any(|d| d.wid == input.wid
                    && d.process == dest
                    && d.round.as_u64() <= round + input.deadline),
                "rumor {} missed {dest} (injected in round {round})",
                input.wid
            );
        }
    }
    let msgs = report.messages;
    assert!(msgs > 0, "the workload sent nothing");
    let per_msg = allocated as f64 / msgs as f64;
    let wire_per_msg = report.wire.bytes_out as f64 / msgs as f64;
    eprintln!(
        "net_alloc_budget: {allocated} B over {msgs} msgs = {per_msg:.1} B/msg; \
         {} wire B = {wire_per_msg:.1} B/msg",
        report.wire.bytes_out
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
