//! Edge cases: broadcast destinations, mixed deadline classes, source
//! crashes mid-pipeline, tiny systems, and restart-heavy schedules.

use congos::{ConfidentialityAuditor, CongosNode, DeliveryPath};
use congos_adversary::{
    qod, CrriAdversary, NoFailures, OneShot, PoissonWorkload, RumorSpec, ScheduledChurn,
};
use congos_sim::{Engine, EngineConfig, ProcessId, Round};

#[test]
fn broadcast_to_everyone_is_legal_and_confidentiality_is_vacuous() {
    let n = 12;
    let dest: Vec<ProcessId> = ProcessId::all(n).collect();
    let spec = RumorSpec::new(0, vec![0xB0; 8], 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(51));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    assert_eq!(e.outputs().len(), n, "everyone delivers a broadcast");
}

#[test]
fn mixed_deadline_classes_coexist() {
    // Three rumors with deadlines landing in three different regimes:
    // direct (8), one pipeline class (64), a longer class (200 → trims to
    // 128). All must deliver on time.
    let n = 16;
    let batch = vec![
        (
            ProcessId::new(0),
            RumorSpec::new(0, vec![1], 8, vec![ProcessId::new(5)]),
        ),
        (
            ProcessId::new(1),
            RumorSpec::new(1, vec![2], 64, vec![ProcessId::new(6)]),
        ),
        (
            ProcessId::new(2),
            RumorSpec::new(2, vec![3], 200, vec![ProcessId::new(7)]),
        ),
    ];
    let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), batch));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(52));
    e.run_observed(201, &mut adv, &mut audit);
    audit.assert_clean();

    let by_wid = |w: u64| {
        e.outputs()
            .iter()
            .find(|o| o.value.wid == w)
            .unwrap_or_else(|| panic!("rumor {w} undelivered"))
    };
    assert!(by_wid(0).round.as_u64() <= 8);
    assert_eq!(by_wid(0).value.via, DeliveryPath::Direct);
    assert!(by_wid(1).round.as_u64() <= 64);
    assert!(by_wid(2).round.as_u64() <= 200);
    assert_eq!(e.outputs().len(), 3);
}

#[test]
fn source_crash_mid_pipeline_never_leaks() {
    // Source crashes right after injecting (rumor inadmissible): delivery
    // is not required, but whatever happens must stay confidential and the
    // system must not wedge.
    let n = 16;
    let source = ProcessId::new(0);
    let spec = RumorSpec::new(0, vec![0xDE; 8], 64, vec![ProcessId::new(9)]);
    let sched = ScheduledChurn::new().crash_at(Round(1), source);
    let mut adv = CrriAdversary::new(sched, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(53));
    e.run_observed(80, &mut adv, &mut audit);
    audit.assert_clean();
    // All outputs, if any, are at the destination.
    assert!(e.outputs().iter().all(|o| o.process == ProcessId::new(9)));
}

#[test]
fn two_process_system_works() {
    // n=2: one bit partition separating the two processes.
    let n = 2;
    let spec = RumorSpec::new(0, vec![0x22; 4], 64, vec![ProcessId::new(1)]);
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(54));
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    let hits: Vec<_> = e
        .outputs()
        .iter()
        .filter(|o| o.process == ProcessId::new(1))
        .collect();
    assert_eq!(hits.len(), 1);
    assert!(hits[0].round.as_u64() <= 64);
}

#[test]
fn single_process_system_delivers_locally_only() {
    let n = 1;
    let spec = RumorSpec::new(0, vec![9], 64, vec![ProcessId::new(0)]);
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(55));
    e.run(5, &mut adv);
    assert_eq!(e.outputs().len(), 1);
    assert_eq!(e.outputs()[0].value.via, DeliveryPath::Local);
    assert_eq!(e.metrics().total(), 0, "no network in a 1-process system");
}

#[test]
fn restart_storm_keeps_audit_clean_and_admissible_delivery() {
    // Aggressive scheduled churn: a third of the system flaps every 16
    // rounds; sources and a destination flap too.
    let n = 12;
    let deadline = 64u64;
    let rounds = 192u64;
    let mut sched = ScheduledChurn::new();
    for wave in 0..6u64 {
        for i in 0..2usize {
            let p = ProcessId::new((wave as usize + i * 5) % n);
            sched = sched
                .crash_at(Round(wave * 32 + 3), p)
                .restart_at(Round(wave * 32 + 21), p);
        }
    }
    let workload = PoissonWorkload::new(0.05, 3, deadline, 56).until(Round(rounds - deadline));
    let mut adv = CrriAdversary::new(sched, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(56));
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();
    assert!(e.liveness().crash_count() >= 10);

    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_on_time();
    let admissible = q.summary.admissible;
    assert!(
        admissible > 5,
        "storm too destructive to measure: {admissible}"
    );
}

#[test]
fn empty_destination_set_is_a_noop() {
    let n = 8;
    let spec = RumorSpec::new(0, vec![1], 64, vec![]);
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut e = Engine::<CongosNode>::new(EngineConfig::new(n).seed(57));
    e.run(66, &mut adv);
    assert!(e.outputs().is_empty());
}

#[test]
fn restart_preserves_deployment_configuration() {
    // A restarted process is factory-reset — but the factory carries the
    // deployment configuration ("the algorithm"), so a restarted node keeps
    // running the same variant.
    use congos::CongosConfig;
    use congos_gossip::GossipStrategy;
    let n = 8;
    let cfg = CongosConfig::base().gossip_strategy(GossipStrategy::Expander);
    let mut sched = ScheduledChurn::new()
        .crash_at(Round(2), ProcessId::new(4))
        .restart_at(Round(5), ProcessId::new(4));
    let _ = &mut sched;
    let spec = RumorSpec::new(0, vec![1; 4], 64, vec![ProcessId::new(4)]);
    let cfg2 = cfg.clone();
    let mut adv = CrriAdversary::new(
        sched,
        OneShot::new(Round(8), vec![(ProcessId::new(0), spec)]),
    );
    let mut e = congos_sim::Engine::<CongosNode>::with_factory(
        congos_sim::EngineConfig::new(n).seed(58),
        move |id, n, _s| CongosNode::with_config(id, n, cfg2.clone()),
    );
    e.run(80, &mut adv);
    // The restarted node still runs the expander-strategy configuration.
    assert_eq!(
        e.protocol(ProcessId::new(4)).config().gossip_strategy,
        GossipStrategy::Expander
    );
    // And (being continuously alive from round 6 on, before the injection
    // at round 8) it receives the rumor on time.
    assert!(e
        .outputs()
        .iter()
        .any(|o| o.process == ProcessId::new(4) && o.round.as_u64() <= 8 + 64));
}
