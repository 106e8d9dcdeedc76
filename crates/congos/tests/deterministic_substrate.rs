//! CONGOS over the deterministic expander substrate (the de-randomized
//! [13] mode): all guarantees must hold with no substrate randomness at
//! all — the adversary gains nothing from observing coin flips that don't
//! exist.

use congos::{ConfidentialityAuditor, CongosConfig, CongosNode};
use congos_adversary::{
    qod, CrriAdversary, NoFailures, OneShot, PoissonWorkload, ProxyKiller, RumorSpec,
};
use congos_gossip::GossipStrategy;
use congos_sim::{Engine, EngineConfig, ProcessId, Round, Tag};

fn engine(n: usize, seed: u64) -> Engine<CongosNode> {
    let cfg = CongosConfig::base().gossip_strategy(GossipStrategy::Expander);
    Engine::with_factory(EngineConfig::new(n).seed(seed), move |id, n, _s| {
        CongosNode::with_config(id, n, cfg.clone())
    })
}

#[test]
fn expander_substrate_delivers_and_confirms() {
    let n = 16;
    let dest: Vec<ProcessId> = vec![2, 7, 11].into_iter().map(ProcessId::new).collect();
    let spec = RumorSpec::new(0, vec![0xEA; 12], 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = engine(n, 61);
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    assert_eq!(e.outputs().len(), dest.len());
    for d in &dest {
        assert!(e
            .outputs()
            .iter()
            .any(|o| o.process == *d && o.round.as_u64() <= 64));
    }
    let stats = e.protocol(ProcessId::new(0)).stats();
    assert_eq!(stats.confirmed, 1, "pipeline confirms over expander too");
}

#[test]
fn expander_substrate_survives_adaptive_attack() {
    // The whole point of de-randomization in [13]: the adversary already
    // "knows" the schedule; adaptive attacks gain no extra power over it.
    let n = 16;
    let source = ProcessId::new(0);
    let dest = vec![ProcessId::new(5), ProcessId::new(10)];
    let mut protected = dest.clone();
    protected.push(source);
    let killer = ProxyKiller::new(Tag("proxy"), 2)
        .protect(protected)
        .revive_after(40);
    let spec = RumorSpec::new(0, vec![4; 8], 64, dest.clone());
    let mut adv = CrriAdversary::new(killer, OneShot::new(Round(0), vec![(source, spec)]));
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = engine(n, 62);
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();
    for d in &dest {
        assert!(
            e.outputs()
                .iter()
                .any(|o| o.process == *d && o.round.as_u64() <= 64),
            "{d} missed under adaptive attack on the deterministic substrate"
        );
    }
}

#[test]
fn continuous_workload_over_expander_meets_qod() {
    let n = 16;
    let deadline = 64u64;
    let rounds = 192u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, 63).until(Round(rounds - deadline));
    let mut adv = CrriAdversary::new(NoFailures, workload);
    let mut e = engine(n, 63);
    e.run(rounds, &mut adv);
    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_every_pair_on_time();
}
