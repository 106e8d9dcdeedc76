//! Workspace-level integration: all five systems under one workload, the
//! facade crate's re-exports, and the parallel engine backend.

use confidential_gossip::adversary::{
    CrriAdversary, NoFailures, OneShot, PoissonWorkload, RumorSpec,
};
use confidential_gossip::baselines::{
    CryptoMulticastNode, DirectNode, PlainEpidemicNode, StronglyConfidentialNode,
};
use confidential_gossip::congos::{ConfidentialityAuditor, CongosNode};
use confidential_gossip::harness::{run, RunSpec};
use confidential_gossip::sim::{Engine, EngineConfig, ProcessId, Round};

#[test]
fn all_five_systems_deliver_the_same_workload() {
    let spec = RunSpec::new(16, 0xABCD, 128);
    let mk = || PoissonWorkload::new(0.05, 3, 64, 9).until(Round(64));

    let congos = run::<CongosNode, _, _>(spec, NoFailures, mk());
    let direct = run::<DirectNode, _, _>(spec, NoFailures, mk());
    let strong = run::<StronglyConfidentialNode, _, _>(spec, NoFailures, mk());
    let crypto = run::<CryptoMulticastNode, _, _>(spec, NoFailures, mk());
    let epidemic = run::<PlainEpidemicNode, _, _>(spec, NoFailures, mk());

    for o in [&congos, &direct, &strong, &crypto, &epidemic] {
        assert!(o.qod.perfect(), "{}: {:?}", o.name, o.qod);
        assert!(o.qod.admissible > 10, "{}: workload too thin", o.name);
    }
    // Identical workloads (same seed) across systems.
    assert_eq!(congos.injections.len(), direct.injections.len());
    assert_eq!(congos.injections.len(), epidemic.injections.len());
    // Direct is the floor on total messages for unicast-style systems.
    assert!(direct.metrics.total() <= crypto.metrics.total());
}

#[test]
fn facade_reexports_compose() {
    // A complete mini-run written purely against the facade crate.
    let n = 8;
    let dest = vec![ProcessId::new(2), ProcessId::new(5)];
    let spec = RumorSpec::new(0, b"facade".to_vec(), 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(1));
    engine.run_observed(65, &mut adv, &mut audit);
    audit.assert_clean();
    assert_eq!(engine.outputs().len(), 2);
    assert_eq!(adv.injections().len(), 1);
}

#[test]
fn threaded_runtime_runs_the_same_protocol_logic() {
    use confidential_gossip::sim::{EngineBackend, NullAdversary};
    // The plain epidemic node — a baseline, not CONGOS — runs unchanged on
    // worker threads with a bulk-synchronous barrier: protocol logic is
    // runtime-agnostic.
    let cfg = EngineConfig::new(6)
        .seed(3)
        .backend(EngineBackend::Parallel { workers: 2 });
    let mut engine = Engine::<PlainEpidemicNode>::new(cfg);
    engine.run(8, &mut NullAdversary);
    // No injections ⇒ no outputs, and no traffic because nothing is active.
    assert_eq!(engine.round().as_u64(), 8);
    assert_eq!(engine.outputs().len(), 0);
    assert_eq!(engine.metrics().total(), 0);
}
