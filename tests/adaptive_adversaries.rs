//! Workspace-level adversarial integration: the adaptive attacks from the
//! paper's introduction, run against CONGOS with the auditor attached.

use confidential_gossip::adversary::{
    CrriAdversary, GroupAnnihilator, OneShot, ProxyKiller, RumorSpec, ScheduledChurn,
};
use confidential_gossip::congos::{ConfidentialityAuditor, CongosNode, DeliveryPath};
use confidential_gossip::sim::{Engine, EngineConfig, ProcessId, Round, Tag};

#[test]
fn repeated_annihilation_of_alternating_groups() {
    // Kill group 0 of partition 0 at round 2, then restart nobody: the
    // survivors (all odd ids) must still complete deliveries among
    // themselves using partitions that split the odd ids.
    let n = 16;
    let source = ProcessId::new(1);
    let dest = vec![ProcessId::new(7), ProcessId::new(9)];
    let spec = RumorSpec::new(0, vec![0x77; 12], 64, dest.clone());
    let adv_fail = GroupAnnihilator::new(0, 0, Round(2));
    let mut adv = CrriAdversary::new(adv_fail, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(5));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    for d in &dest {
        assert!(
            e.outputs()
                .iter()
                .any(|o| o.process == *d && o.round.as_u64() <= 64),
            "{d} missed"
        );
    }
}

#[test]
fn sustained_proxy_killing_never_leaks_or_misses() {
    let n = 16;
    let source = ProcessId::new(0);
    let dest = vec![ProcessId::new(5), ProcessId::new(10)];
    let mut protected = dest.clone();
    protected.push(source);
    let killer = ProxyKiller::new(Tag("proxy"), 3)
        .protect(protected)
        .revive_after(24);
    let spec = RumorSpec::new(0, vec![0x42; 8], 64, dest.clone());
    let mut adv = CrriAdversary::new(killer, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(6));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    assert!(adv.failures().kills() > 0, "the attack must fire");
    for d in &dest {
        assert!(
            e.outputs()
                .iter()
                .any(|o| o.process == *d && o.round.as_u64() <= 64),
            "{d} missed under sustained proxy killing"
        );
    }
}

#[test]
fn total_isolation_forces_fallback_and_stays_confidential() {
    // Crash everyone but source and destination before fragments can move:
    // the only remaining path is the source's deadline "shoot" — which goes
    // only to the destination, so confidentiality trivially holds and QoD
    // is met at the wire-deadline.
    let n = 12;
    let source = ProcessId::new(0);
    let dest = ProcessId::new(7);
    let mut sched = ScheduledChurn::new();
    for i in 0..n {
        let p = ProcessId::new(i);
        if p != source && p != dest {
            sched = sched.crash_at(Round(0), p);
        }
    }
    let spec = RumorSpec::new(0, vec![9; 4], 64, vec![dest]);
    let mut adv = CrriAdversary::new(sched, OneShot::new(Round(1), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(7));
    e.run_observed(80, &mut adv, &mut audit);
    audit.assert_clean();
    let hits: Vec<_> = e.outputs().iter().filter(|o| o.process == dest).collect();
    assert_eq!(hits.len(), 1);
    assert!(hits[0].round.as_u64() <= 1 + 64);
    // Even with everyone else dead the pipeline can still succeed — some
    // partition separates source and destination (Lemma 5), the proxy
    // request lands on the destination itself, and GroupDistribution covers
    // the rest. Either way, the delivery path is one of the two legitimate
    // mechanisms and arrived on time.
    assert!(
        matches!(
            hits[0].value.via,
            DeliveryPath::Fallback | DeliveryPath::Fragments
        ),
        "unexpected path {:?}",
        hits[0].value.via
    );
}
