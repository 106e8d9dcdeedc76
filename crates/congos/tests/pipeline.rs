//! End-to-end tests of the CONGOS pipeline: delivery, confirmation,
//! confidentiality (audited), and the fallback path.

use congos::{ConfidentialityAuditor, CongosNode, DeliveryPath, NodeStats};
use congos_adversary::{
    qod, CrriAdversary, GroupAnnihilator, NoFailures, OneShot, PoissonWorkload, ProxyKiller,
    RandomChurn, RumorSpec, ScheduledChurn,
};
use congos_sim::{Engine, EngineConfig, ProcessId, Round, Tag};

fn total_stats(engine: &Engine<CongosNode>) -> NodeStats {
    let mut acc = NodeStats::default();
    for p in ProcessId::all(engine.n()) {
        let s = engine.protocol(p).stats();
        acc.injected += s.injected;
        acc.confirmed += s.confirmed;
        acc.fallbacks += s.fallbacks;
        acc.direct += s.direct;
        acc.gossip_fallbacks += s.gossip_fallbacks;
    }
    acc
}

#[test]
fn benign_run_confirms_without_fallback() {
    let n = 16;
    let dest: Vec<ProcessId> = vec![1, 4, 7, 10, 13]
        .into_iter()
        .map(ProcessId::new)
        .collect();
    let spec = RumorSpec::new(0, vec![0x5A; 24], 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(11));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();

    // All five destinations delivered, each exactly once, within deadline.
    assert_eq!(e.outputs().len(), dest.len());
    for d in &dest {
        let hits: Vec<_> = e.outputs().iter().filter(|o| o.process == *d).collect();
        assert_eq!(hits.len(), 1, "{d} must deliver exactly once");
        assert!(hits[0].round.as_u64() <= 64);
        assert_eq!(hits[0].value.data, vec![0x5A; 24]);
        assert_eq!(hits[0].value.via, DeliveryPath::Fragments);
    }

    // The source confirmed through the pipeline; the fallback never fired.
    let stats = total_stats(&e);
    assert_eq!(stats.injected, 1);
    assert_eq!(stats.confirmed, 1, "pipeline must confirm in benign runs");
    assert_eq!(stats.fallbacks, 0);
    assert_eq!(e.metrics().total_of(Tag("shoot")), 0);
}

#[test]
fn continuous_workload_is_confidential_and_timely() {
    let n = 16;
    let deadline = 64u64;
    let rounds = 192u64;
    let workload = PoissonWorkload::new(0.04, 3, deadline, 21).until(Round(rounds - deadline));
    let mut adv = CrriAdversary::new(NoFailures, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(12));
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();

    let log = adv.injections();
    assert!(log.len() > 20, "workload too thin: {}", log.len());
    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(log, delivered, e.liveness(), e.topology());
    q.assert_every_pair_on_time();
}

#[test]
fn qod_holds_under_random_churn() {
    let n = 16;
    let deadline = 64u64;
    let rounds = 256u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, 31).until(Round(rounds - deadline));
    let churn = RandomChurn::new(0.004, 0.15, 32);
    let mut adv = CrriAdversary::new(churn, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(13));
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();

    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_on_time();
    let admissible = q.summary.admissible;
    assert!(
        admissible > 10,
        "churn killed the whole workload: {admissible}"
    );
    assert!(e.liveness().crash_count() > 0, "churn must actually churn");
}

#[test]
fn proxy_killer_cannot_break_confidentiality_or_qod() {
    // The adaptive attack the Proxy service handles: crash every process
    // the moment it receives a proxy request.
    let n = 16;
    let deadline = 64u64;
    let source = ProcessId::new(0);
    let dest: Vec<ProcessId> = vec![3, 6, 9].into_iter().map(ProcessId::new).collect();
    let spec = RumorSpec::new(0, vec![7; 16], deadline, dest.clone());
    let mut protected = dest.clone();
    protected.push(source);
    let killer = ProxyKiller::new(Tag("proxy"), 2)
        .protect(protected)
        .revive_after(40);
    let mut adv = CrriAdversary::new(killer, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(14));
    e.run_observed(65, &mut adv, &mut audit);
    audit.assert_clean();

    for d in &dest {
        assert!(
            e.outputs()
                .iter()
                .any(|o| o.process == *d && o.round.as_u64() <= deadline),
            "{d} missed the rumor under the proxy-killer attack"
        );
    }
    assert!(adv.failures().kills() > 0, "the attack must actually fire");
}

#[test]
fn annihilating_one_group_still_delivers_via_other_partitions() {
    // Killing all of one side of partition 0 right as fragments spread: the
    // remaining log(n)-1 partitions (or the fallback) must still deliver.
    let n = 16;
    let deadline = 64u64;
    let source = ProcessId::new(1); // bit0 = 1
    let dest = vec![ProcessId::new(3)]; // bit0 = 1
    let spec = RumorSpec::new(0, vec![9; 8], deadline, dest.clone());
    // Kill every process with bit 0 == 0 at round 2 (the entire group 0 of
    // partition 0 — including proxies holding fragment 0).
    let ann = GroupAnnihilator::new(0, 0, Round(2));
    let mut adv = CrriAdversary::new(ann, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(15));
    e.run_observed(65, &mut adv, &mut audit);
    audit.assert_clean();

    assert!(
        e.outputs()
            .iter()
            .any(|o| o.process == dest[0] && o.round.as_u64() <= deadline),
        "destination missed the rumor after group annihilation"
    );
}

#[test]
fn fallback_rescues_rumor_when_pipeline_is_starved() {
    // Crash *everyone* except source and destination at round 1: no group
    // has enough survivors, so the deadline fallback must fire and deliver.
    let n = 16;
    let deadline = 64u64;
    let source = ProcessId::new(0);
    let dest = ProcessId::new(5);
    let spec = RumorSpec::new(0, vec![3; 8], deadline, vec![dest]);
    let mut sched = ScheduledChurn::new();
    for i in 0..n {
        let p = ProcessId::new(i);
        if p != source && p != dest {
            sched = sched.crash_at(Round(1), p);
        }
    }
    let mut adv = CrriAdversary::new(sched, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(16));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();

    let hits: Vec<_> = e.outputs().iter().filter(|o| o.process == dest).collect();
    assert_eq!(hits.len(), 1);
    assert!(
        hits[0].round.as_u64() <= deadline,
        "fallback met the deadline"
    );
    let stats = total_stats(&e);
    assert!(
        stats.fallbacks >= 1 || hits[0].value.via == DeliveryPath::Fragments,
        "either the fallback fired or a partition survived"
    );
}

#[test]
fn short_deadlines_take_the_direct_path() {
    let n = 8;
    let dest = vec![ProcessId::new(2), ProcessId::new(6)];
    let spec = RumorSpec::new(0, vec![1, 2, 3], 8, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(17));
    e.run_observed(10, &mut adv, &mut audit);
    audit.assert_clean();

    assert_eq!(e.outputs().len(), 2);
    for o in e.outputs() {
        assert_eq!(o.value.via, DeliveryPath::Direct);
        assert!(o.round.as_u64() <= 8);
    }
    let stats = total_stats(&e);
    assert_eq!(stats.direct, 1);
    assert_eq!(e.metrics().total_of(Tag("shoot")), 2);
}

#[test]
fn source_in_destination_set_delivers_locally() {
    let n = 8;
    let source = ProcessId::new(0);
    let spec = RumorSpec::new(0, vec![42], 64, vec![source, ProcessId::new(3)]);
    let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), vec![(source, spec)]));
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(18));
    e.run(66, &mut adv);
    let local: Vec<_> = e.outputs().iter().filter(|o| o.process == source).collect();
    assert_eq!(local.len(), 1);
    assert_eq!(local[0].value.via, DeliveryPath::Local);
    assert_eq!(local[0].round, Round(0), "local delivery is immediate");
}

#[test]
fn executions_are_deterministic() {
    let run = |seed: u64| {
        let n = 12;
        let workload = PoissonWorkload::new(0.05, 3, 64, 5).until(Round(64));
        let churn = RandomChurn::new(0.003, 0.1, 6);
        let mut adv = CrriAdversary::new(churn, workload);
        let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(seed));
        e.run(128, &mut adv);
        (
            e.metrics().total(),
            e.outputs().len(),
            e.liveness().crash_count(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10), "different seeds explore different runs");
}

#[test]
fn non_destinations_never_output_and_audit_observes_traffic() {
    let n = 16;
    let dest = vec![ProcessId::new(9)];
    let spec = RumorSpec::new(0, vec![0xEE; 32], 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(19));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();

    assert!(e.outputs().iter().all(|o| o.process == dest[0]));
    // The whole point of CONGOS: non-destinations *do* carry fragments.
    assert!(
        audit.report().fragment_receipts > 10,
        "collaboration should spread fragments widely, got {}",
        audit.report().fragment_receipts
    );
    assert_eq!(audit.report().rumors, 1);
}

#[test]
fn gd_killer_cannot_break_confidentiality_or_qod() {
    // Same adaptive game as the proxy killer, aimed at the
    // GroupDistribution recipients instead.
    let n = 16;
    let deadline = 64u64;
    let source = ProcessId::new(0);
    let dest: Vec<ProcessId> = vec![2, 9, 14].into_iter().map(ProcessId::new).collect();
    let spec = RumorSpec::new(0, vec![6; 16], deadline, dest.clone());
    let mut protected = dest.clone();
    protected.push(source);
    let killer = ProxyKiller::new(Tag("group_dist"), 2)
        .protect(protected)
        .revive_after(40);
    let mut adv = CrriAdversary::new(killer, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(71));
    e.run_observed(65, &mut adv, &mut audit);
    audit.assert_clean();
    for d in &dest {
        assert!(
            e.outputs()
                .iter()
                .any(|o| o.process == *d && o.round.as_u64() <= deadline),
            "{d} missed under the GD-killer attack"
        );
    }
}

#[test]
fn hiding_plus_collusion_composes() {
    use congos::CongosConfig;
    use congos_adversary::pick_colluders;
    use congos_sim::IdSet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let n = 16;
    let tau = 2;
    let cfg = CongosConfig::collusion_tolerant(tau, 3)
        .without_degenerate_shortcut()
        .hide_destinations();
    let dest = vec![ProcessId::new(9)];
    let secret = vec![0x17; 12];
    let spec = RumorSpec::new(0, secret.clone(), 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut rng = SmallRng::seed_from_u64(4);
    for i in 0..6 {
        let ring = pick_colluders(&mut rng, n, ProcessId::new(i), &[], tau);
        audit.add_coalition(IdSet::from_iter(n, ring));
    }
    let cfg2 = cfg.clone();
    let mut e =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(72), move |id, n, _s| {
            CongosNode::with_config(id, n, cfg2.clone())
        });
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();

    let real: Vec<_> = e
        .outputs()
        .iter()
        .filter(|o| !o.value.data.is_empty())
        .collect();
    assert_eq!(real.len(), 1, "only the real destination surfaces anything");
    assert_eq!(real[0].process, dest[0]);
    assert_eq!(real[0].value.data, secret);
}
