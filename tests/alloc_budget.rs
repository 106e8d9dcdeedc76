//! Allocation guard: heap bytes allocated per message sent in a small,
//! failure-free CONGOS run stay within a budget.
//!
//! The counting allocator of `harness::mem` is process-wide, so this binary
//! holds exactly one test: nothing else allocates while the round loop is
//! measured. The count is deterministic for a fixed seed and schedule, up
//! to the `HashMap` noise noted at `MEASURED`.

use confidential_gossip::adversary::{CrriAdversary, NoFailures, PoissonWorkload};
use confidential_gossip::congos::CongosNode;
use confidential_gossip::harness::mem;
use confidential_gossip::sim::{Engine, EngineBackend, EngineConfig, Round};

/// Bytes allocated per message sent by the run below (≈ 74.3 B over
/// 400 168 messages; per-process `HashMap` seeds move it by ±0.1 %),
/// measured with 48-byte messages that are never re-allocated in flight
/// (the gossip wire inline, one shared rumor per fallback, inboxes
/// borrowed), a message to many targets stored once (one payload slot per
/// send, each message a `dst`/`src` and slot-index row, the adversary
/// reading the outbox columns in place), push targets drawn into a kept
/// buffer, each gossip rumor, payload inline, one `Arc` shared by every
/// endpoint and push batch that holds it, a push batch being a copy of the
/// sorted active id and rumor columns refilled in place once last round's
/// receivers dropped it (a round's payloads die when its compute phase
/// ends), GroupDistribution sampling into kept buffers, the confirmation
/// matrix kept only for the source's own cached rumors, a few bits each,
/// every per-rumor table expiring in the first round past its rumor's
/// horizon, and the Proxy and GroupDistribution buffers keeping their
/// capacity across blocks.
/// History of the same run, each earlier level failing this budget: a fresh
/// push batch, ack map, delivery queue and fragment vectors every step,
/// ≈ 617.5 B/msg; the gossip lane's retained buffers and cached push batch
/// with a boxed wire and cloned inboxes, ≈ 326.9 B/msg; a `BTreeMap`
/// active set whose batch was collected from its values, ≈ 266.5 B/msg;
/// one sorted vector of rumors held by value, its batch a plain copy of
/// it, ≈ 235.6 B/msg; every hit of every delivered `Distribution` kept in
/// hashed per-epoch sets, whoever the rumor's source, ≈ 191.8 B/msg. Then,
/// within it, each gossip payload in an `Arc` of its own inside its
/// rumor's, ≈ 152.3 B/msg; a payload, tag and message row per (src, dst)
/// message in the send and outbox columns plus a per-round copy of the
/// outbox metadata, ≈ 152.0 B/msg; gossip dedup maps pruned only past
/// 256 ids, node keys only every 512 rounds, and the service buffers
/// rebuilt every block, ≈ 138.1 B/msg; a new push batch after every
/// change of the active set, with payloads alive until the next round's
/// merge, and a fresh candidate set and sample per GroupDistribution send
/// round, ≈ 107.7 B/msg.
const MEASURED: f64 = 74.3;

#[test]
fn round_loop_allocates_within_budget_per_message() {
    let (n, rounds, seed) = (32, 200, 11);
    let workload = PoissonWorkload::new(0.04, 3, 64, seed).until(Round(rounds - 64));
    let mut adversary = CrriAdversary::new(NoFailures, workload);
    let cfg = EngineConfig::new(n)
        .seed(seed)
        .backend(EngineBackend::Sequential);
    let mut engine = Engine::<CongosNode>::new(cfg);

    let before = mem::bytes_allocated();
    for _ in 0..rounds {
        engine.step(&mut adversary);
    }
    let allocated = mem::bytes_allocated() - before;

    let msgs = engine.metrics().total();
    assert!(msgs > 0, "the workload sent nothing");
    let per_msg = allocated as f64 / msgs as f64;
    eprintln!("alloc_budget: {allocated} B over {msgs} msgs = {per_msg:.1} B/msg");
    let budget = 1.15 * MEASURED;
    assert!(
        per_msg <= budget,
        "{per_msg:.1} B/msg allocated, budget {budget:.1} (1.15 × {MEASURED})"
    );
}
