//! Tolerating rings of colluding, curious processes (Section 6).
//!
//! Run with:
//!
//! ```text
//! cargo run --example collusion_rings
//! ```
//!
//! Honest-but-curious processes follow the protocol but pool everything
//! they see, hoping to reassemble rumors they are not entitled to. With the
//! base algorithm (2 fragments per partition) a ring of two colluders
//! sitting in opposite groups could combine their halves. The
//! collusion-tolerant variant splits every rumor into `τ+1` fragments over
//! `Θ(τ log n)` random partitions, so no ring of ≤ τ processes ever holds a
//! complete set. The auditor pools each ring's knowledge and verifies
//! exactly that.

use congos::{ConfidentialityAuditor, CongosConfig, CongosNode};
use congos_adversary::{pick_colluders, qod, CrriAdversary, NoFailures, PoissonWorkload};
use congos_sim::{Engine, EngineConfig, IdSet, ProcessId, Round};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = 32;
    let tau = 3;
    let deadline = 64u64;
    let rounds = 3 * deadline;

    println!(
        "collusion-tolerant CONGOS: n={n}, τ={tau} (rumors split {}-ways)",
        tau + 1
    );

    // τ-sized collusion rings, pooled by the auditor.
    let mut audit = ConfidentialityAuditor::new(n);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut rings = 0;
    for i in 0..12 {
        let members = pick_colluders(&mut rng, n, ProcessId::new(i % n), &[], tau);
        println!("  ring {i}: {members:?}");
        audit.add_coalition(IdSet::from_iter(n, members));
        rings += 1;
    }

    let cfg = CongosConfig::collusion_tolerant(tau, 0xC0FFEE).without_degenerate_shortcut();
    println!(
        "partitions: {} of {} groups each",
        {
            let probe = CongosNode::with_config(ProcessId::new(0), n, cfg.clone());
            probe.partitions().len()
        },
        tau + 1
    );

    let workload = PoissonWorkload::new(0.03, 4, deadline, 21).until(Round(rounds - deadline));
    let mut adversary = CrriAdversary::new(NoFailures, workload);
    let cfg2 = cfg.clone();
    let mut engine =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(77), move |id, n, _s| {
            CongosNode::with_config(id, n, cfg2.clone())
        });
    engine.run_observed(rounds, &mut adversary, &mut audit);

    let injected = adversary.injections().len();
    println!(
        "{injected} rumors injected; {} fragment receipts circulated",
        audit.report().fragment_receipts
    );

    audit.assert_clean();
    println!("audit: none of the {rings} rings could reassemble any rumor ✓");

    // And delivery still works for the legitimate destinations.
    let (log, out) = (adversary.injections(), engine.outputs());
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(log, delivered, engine.liveness(), engine.topology());
    q.assert_every_pair_on_time();
    println!("all destination deliveries met their deadlines ✓");
}
