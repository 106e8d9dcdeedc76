//! End-to-end tests of collusion-tolerant CONGOS (Section 6.2): `τ+1`-way
//! splits over random partitions, audited against pooled coalitions.

use congos::{ConfidentialityAuditor, CongosConfig, CongosNode, DeliveryPath};
use congos_adversary::{
    pick_colluders, qod, CrriAdversary, NoFailures, OneShot, PoissonWorkload, RandomChurn,
    RumorSpec,
};
use congos_sim::{Engine, EngineConfig, IdSet, ProcessId, Round};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn collusion_engine(n: usize, tau: usize, seed: u64) -> Engine<CongosNode> {
    let cfg = CongosConfig::collusion_tolerant(tau, 77).without_degenerate_shortcut();
    Engine::with_factory(EngineConfig::new(n).seed(seed), move |id, n, _s| {
        CongosNode::with_config(id, n, cfg.clone())
    })
}

#[test]
fn tau2_pipeline_delivers_and_confirms() {
    let n = 32;
    let tau = 2;
    let dest: Vec<ProcessId> = vec![3, 11, 20].into_iter().map(ProcessId::new).collect();
    let spec = RumorSpec::new(0, vec![0xC0; 16], 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = collusion_engine(n, tau, 41);
    e.run_observed(66, &mut adv, &mut audit);
    audit.assert_clean();

    assert_eq!(e.outputs().len(), dest.len());
    for o in e.outputs() {
        assert!(dest.contains(&o.process));
        assert!(o.round.as_u64() <= 64);
        assert_eq!(o.value.via, DeliveryPath::Fragments);
    }
    let stats = e.protocol(ProcessId::new(0)).stats();
    assert_eq!(stats.confirmed, 1, "collusion pipeline must confirm");
    assert_eq!(stats.fallbacks, 0);
    // The node really runs (τ+1)-group partitions.
    assert_eq!(
        e.protocol(ProcessId::new(0))
            .partitions()
            .groups_per_partition(),
        tau + 1
    );
}

#[test]
fn coalitions_of_tau_curious_processes_learn_nothing() {
    let n = 32;
    let tau = 3;
    let rounds = 128u64;
    let workload = PoissonWorkload::new(0.03, 4, 64, 5).until(Round(rounds - 64));
    let mut adv = CrriAdversary::new(NoFailures, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    // Register many random coalitions of size τ.
    let mut rng = SmallRng::seed_from_u64(9);
    for i in 0..16 {
        let members = pick_colluders(
            &mut rng,
            n,
            ProcessId::new(i % n),
            &[], // no destination exclusion: the auditor itself skips
            // rumors a coalition member is entitled to
            tau,
        );
        audit.add_coalition(IdSet::from_iter(n, members));
    }
    let mut e = collusion_engine(n, tau, 42);
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();
    assert!(
        audit.report().fragment_receipts > 100,
        "fragments must actually circulate: {}",
        audit.report().fragment_receipts
    );
    // QoD under the failure-free run: every pair delivered on time.
    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_every_pair_on_time();
}

#[test]
fn collusion_pipeline_survives_churn() {
    let n = 32;
    let tau = 2;
    let rounds = 160u64;
    let workload = PoissonWorkload::new(0.02, 3, 64, 15).until(Round(rounds - 64));
    let churn = RandomChurn::new(0.002, 0.1, 16);
    let mut adv = CrriAdversary::new(churn, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = collusion_engine(n, tau, 43);
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();

    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_on_time();
    let admissible = q.summary.admissible;
    assert!(admissible > 5, "workload too thin: {admissible}");
}

#[test]
fn degenerate_tau_sends_directly() {
    // With the paper's shortcut enabled, τ ≥ n/log²n ⇒ everything direct.
    let n = 16;
    let cfg = CongosConfig::collusion_tolerant(8, 3);
    assert!(cfg.degenerate_collusion(n));
    let dest = vec![ProcessId::new(5)];
    let spec = RumorSpec::new(0, vec![1], 64, dest);
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut e =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(44), move |id, n, _s| {
            CongosNode::with_config(id, n, cfg.clone())
        });
    e.run(3, &mut adv);
    assert_eq!(e.outputs().len(), 1);
    assert_eq!(e.outputs()[0].value.via, DeliveryPath::Direct);
}
