//! Quickstart: share one confidential rumor with a chosen set of recipients.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! A 16-process system runs CONGOS; process 0 injects a secret destined for
//! three recipients with a 64-round deadline. The confidentiality auditor
//! watches every message on the wire and verifies that nobody outside the
//! destination set could ever reassemble the secret — even though *all*
//! sixteen processes collaborated in carrying its fragments.

use congos::{ConfidentialityAuditor, CongosNode};
use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
use congos_sim::{Engine, EngineConfig, ProcessId, Round};

fn main() {
    let n = 16;
    let source = ProcessId::new(0);
    let recipients = vec![ProcessId::new(3), ProcessId::new(8), ProcessId::new(13)];
    let secret = b"meet at the old lighthouse, midnight".to_vec();

    println!("CONGOS quickstart: {n} processes, source {source}, recipients {recipients:?}");

    // A rumor is ⟨data, deadline, destination set⟩.
    let rumor = RumorSpec::new(0, secret.clone(), 64, recipients.clone());
    let mut adversary =
        CrriAdversary::new(NoFailures, OneShot::new(Round(0), vec![(source, rumor)]));

    let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(42));
    let mut audit = ConfidentialityAuditor::new(n);
    engine.run_observed(65, &mut adversary, &mut audit);

    for out in engine.outputs() {
        println!(
            "  round {:>3}: {} reassembled the secret via {:?}",
            out.round.as_u64(),
            out.process,
            out.value.via
        );
        assert_eq!(out.value.data, secret);
        assert!(recipients.contains(&out.process));
    }
    assert_eq!(engine.outputs().len(), recipients.len());

    // Everyone helped carry fragments…
    println!(
        "fragment receipts across the system: {}",
        audit.report().fragment_receipts
    );
    // …but nobody outside the destination set could reconstruct anything.
    audit.assert_clean();
    println!("confidentiality audit: clean ✓");

    let stats = engine.protocol(source).stats();
    println!(
        "source stats: injected={} confirmed={} fallbacks={} (pipeline confirmed: {})",
        stats.injected,
        stats.confirmed,
        stats.fallbacks,
        stats.fallbacks == 0
    );
}
