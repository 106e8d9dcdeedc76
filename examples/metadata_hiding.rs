//! The Section 7 extensions in action: hiding destination sets and rumor
//! existence — and what they buy against a source-predicting coalition.
//!
//! Run with:
//!
//! ```text
//! cargo run --example metadata_hiding
//! ```
//!
//! Base CONGOS keeps rumor *contents* confidential, but metadata — who is
//! receiving, how many rumors exist, who spoke first — still circulates.
//! This example turns on both Section 7 countermeasures and shows their
//! price and their payoff: destination hiding multiplies bytes (every
//! rumor becomes `n` same-sized singleton rumors) while message counts
//! barely move; cover traffic keeps the network humming even when nothing
//! real is being said — and that hum is exactly what stops a coalition of
//! curious processes from telling who started the rumor (the E13
//! source-identification metric, `congos_adversary::predict`).

use congos::{ConfidentialityAuditor, CongosConfig, CongosNode, CoverTrafficConfig};
use congos_adversary::predict::{first_contact_posterior, CoalitionTap, EstimatorCtx};
use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
use congos_sim::{Engine, EngineConfig, ProcessId, Round};

/// Returns (messages, bytes, deliveries, coalition's posterior mass on the
/// true source).
fn run_variant(name: &str, cfg: CongosConfig) -> (u64, u64, usize, f64) {
    let n = 16;
    let source = ProcessId::new(0);
    let dest = vec![ProcessId::new(4), ProcessId::new(11)];
    let secret = b"quarterly numbers: up 12%".to_vec();
    let spec = RumorSpec::new(0, secret.clone(), 64, dest.clone());
    let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), vec![(source, spec)]));
    // Audit the run, and let four curious-but-honest processes pool
    // everything their inboxes see.
    let members: Vec<ProcessId> = [2usize, 5, 9, 13].map(ProcessId::new).to_vec();
    let mut watchers = (
        ConfidentialityAuditor::new(n),
        CoalitionTap::new(n, &members),
    );
    let cfg2 = cfg.clone();
    let mut e =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(1234), move |id, n, _s| {
            CongosNode::with_config(id, n, cfg2.clone())
        });
    e.run_observed(66, &mut adv, &mut watchers);
    let (audit, tap) = watchers;
    audit.assert_clean();

    for o in e.outputs() {
        assert!(dest.contains(&o.process));
        assert_eq!(o.value.data, secret);
    }
    // Who started it? First-contact estimation over the rumor-bearing tags.
    let log = tap.log();
    let candidates: Vec<ProcessId> = ProcessId::all(n).filter(|p| !members.contains(p)).collect();
    let posterior = first_contact_posterior(&EstimatorCtx {
        log,
        candidates: &candidates,
        injected_at: Round(0),
        tags: &["proxy", "group_dist", "shoot"],
    });
    let source_mass = posterior[candidates.iter().position(|c| *c == source).unwrap()];
    println!(
        "{name:<20} messages {:>7}  bytes {:>9}  deliveries {}  P[source|watch] {:>5.1}%",
        e.metrics().total(),
        e.metrics().total_bytes(),
        e.outputs().len(),
        source_mass * 100.0,
    );
    (
        e.metrics().total(),
        e.metrics().total_bytes(),
        e.outputs().len(),
        source_mass,
    )
}

fn main() {
    println!("one confidential rumor, 16 processes, 2 recipients, 4 curious watchers:\n");
    let (m0, b0, d0, p0) = run_variant("base", CongosConfig::base());
    let (m1, b1, d1, _p1) = run_variant(
        "hide destinations",
        CongosConfig::base().hide_destinations(),
    );
    let (_m2, _b2, d2, p2) = run_variant(
        "plus cover traffic",
        CongosConfig::base()
            .hide_destinations()
            .cover_traffic(CoverTrafficConfig {
                rate: 0.10,
                data_len: 25,
                deadline: 64,
            }),
    );
    assert_eq!((d0, d1, d2), (2, 2, 2), "real deliveries never change");

    println!(
        "\ndestination hiding cost: ×{:.1} messages, ×{:.1} bytes \
         (the paper: message complexity preserved, message size significant)",
        m1 as f64 / m0 as f64,
        b1 as f64 / b0 as f64
    );
    println!(
        "an observer now sees 16 indistinguishable singleton rumors instead of \
         one rumor with a visible 2-process destination set"
    );
    println!(
        "source identification (first-contact estimator, blind guessing = {:.1}%): \
         base {:.1}% -> with cover traffic {:.1}% — decoys make every process \
         look like a first sender (experiment E13 quantifies this across \
         coalition sizes and topologies)",
        100.0 / 12.0,
        p0 * 100.0,
        p2 * 100.0,
    );
    assert!(
        p2 < p0,
        "cover traffic should reduce source identification ({p0:.3} -> {p2:.3})"
    );
}
