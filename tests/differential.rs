//! Differential testing, along three axes:
//!
//! * **Protocol equivalence** — in failure-free executions, CONGOS must
//!   produce exactly the same set of (rumor, destination) deliveries as the
//!   trivial direct-unicast protocol. The protocols differ in *how* (and in
//!   what a curious process can learn), never in *what* is delivered.
//! * **Backend equivalence** — the parallel round engine must be
//!   bit-identical to the sequential one: same delivery sets, same
//!   per-round per-tag message counts, same audit verdicts, same trace —
//!   for every worker count, the default load-gated schedule, every seed,
//!   and under adaptive adversaries.
//! * **Topology equivalence** — both of the above must keep holding when
//!   the network is no longer the paper's complete graph: for every
//!   topology × adversary × seed, sequential and parallel executions must
//!   stay bit-identical, and the `complete` topology must reproduce the
//!   pinned pre-topology golden trace digest exactly (the topology layer
//!   is invisible on the default path).
//!
//! All fingerprint machinery (the runner, the FNV-1a digest, the golden
//! constant) lives in [`confidential_gossip::testkit`] so other suites
//! share the same fixtures.

use std::collections::BTreeSet;

use confidential_gossip::adversary::{NoFailures, PoissonWorkload};
use confidential_gossip::baselines::DirectNode;
use confidential_gossip::congos::CongosNode;
use confidential_gossip::harness::{run, RunSpec};
use confidential_gossip::sim::Round;

fn delivery_set(out: &confidential_gossip::harness::RunOutcome) -> BTreeSet<(u64, usize)> {
    out.deliveries
        .iter()
        .map(|d| (d.wid, d.process.as_usize()))
        .collect()
}

#[test]
fn congos_and_direct_deliver_identical_sets() {
    for seed in [1u64, 2, 3, 4, 5] {
        let n = 16;
        let rounds = 160;
        let spec = RunSpec::new(n, seed, rounds);
        let mk = || PoissonWorkload::new(0.04, 3, 64, seed * 31).until(Round(rounds - 64));
        let congos = run::<CongosNode, _, _>(spec, NoFailures, mk());
        let direct = run::<DirectNode, _, _>(spec, NoFailures, mk());
        assert!(congos.qod.perfect(), "seed {seed}: {:?}", congos.qod);
        assert!(direct.qod.perfect(), "seed {seed}");
        assert_eq!(
            congos.injections.len(),
            direct.injections.len(),
            "seed {seed}: workloads must be identical"
        );
        let a = delivery_set(&congos);
        let b = delivery_set(&direct);
        assert_eq!(a, b, "seed {seed}: delivery sets diverge");
        assert!(!a.is_empty(), "seed {seed}: empty workload");
    }
}

#[test]
fn congos_collusion_variant_is_also_delivery_equivalent() {
    use confidential_gossip::congos::CongosConfig;
    use confidential_gossip::harness::run_with_factory;
    use confidential_gossip::sim::NullObserver;

    let n = 16;
    let rounds = 160;
    let spec = RunSpec::new(n, 77, rounds);
    let mk = || PoissonWorkload::new(0.03, 3, 64, 99).until(Round(rounds - 64));
    let cfg = CongosConfig::collusion_tolerant(2, 5).without_degenerate_shortcut();
    let collusion = run_with_factory::<CongosNode, _, _>(
        spec,
        move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
        NoFailures,
        mk(),
        &mut NullObserver,
    );
    let direct = run::<DirectNode, _, _>(spec, NoFailures, mk());
    assert!(collusion.qod.perfect(), "{:?}", collusion.qod);
    assert_eq!(delivery_set(&collusion), delivery_set(&direct));
}

mod backend_equivalence {
    //! The parallel engine's determinism contract, checked end to end on
    //! CONGOS over the complete topology: for every backend — explicit
    //! worker counts and the default, which fans out only its heavy phases
    //! — the full observable execution (ordered deliveries, per-round
    //! per-tag message counts, audit verdicts, the rendered trace) must be
    //! bit-identical to the sequential engine.

    use confidential_gossip::adversary::{NoFailures, ProxyKiller, RandomChurn};
    use confidential_gossip::sim::{EngineBackend, Tag, TopologySpec};
    use confidential_gossip::testkit::{congos_fingerprint, fnv1a, GOLDEN_TRACE_DIGEST};

    const SEEDS: [u64; 3] = [11, 12, 13];
    /// Every backend compared against `Sequential`, the default (`Auto`)
    /// among them.
    const BACKENDS: [EngineBackend; 3] = [
        EngineBackend::Parallel { workers: 1 },
        EngineBackend::Parallel { workers: 4 },
        EngineBackend::Auto,
    ];

    #[test]
    fn no_failures_identical_across_backends() {
        for seed in SEEDS {
            let seq = congos_fingerprint(
                EngineBackend::Sequential,
                TopologySpec::Complete,
                seed,
                NoFailures,
            );
            assert!(!seq.outputs.is_empty(), "seed {seed}: nothing delivered");
            for backend in BACKENDS {
                let par = congos_fingerprint(backend, TopologySpec::Complete, seed, NoFailures);
                assert_eq!(seq, par, "seed {seed} backend {backend}");
            }
        }
    }

    #[test]
    fn random_churn_identical_across_backends() {
        for seed in SEEDS {
            let churn = || RandomChurn::new(0.01, 0.2, seed * 7 + 1);
            let seq = congos_fingerprint(
                EngineBackend::Sequential,
                TopologySpec::Complete,
                seed,
                churn(),
            );
            for backend in BACKENDS {
                let par = congos_fingerprint(backend, TopologySpec::Complete, seed, churn());
                assert_eq!(seq, par, "seed {seed} backend {backend}");
            }
        }
    }

    #[test]
    fn adaptive_proxy_killer_identical_across_backends() {
        // ProxyKiller reacts to the round's outbox snapshot — the sharpest
        // test that the parallel engine presents the adversary the exact
        // ordered view the sequential engine would.
        for seed in SEEDS {
            let killer = || ProxyKiller::new(Tag("proxy"), 3).revive_after(24);
            let seq = congos_fingerprint(
                EngineBackend::Sequential,
                TopologySpec::Complete,
                seed,
                killer(),
            );
            for backend in BACKENDS {
                let par = congos_fingerprint(backend, TopologySpec::Complete, seed, killer());
                assert_eq!(seq, par, "seed {seed} backend {backend}");
            }
        }
    }

    #[test]
    fn seed_determinism_and_golden_trace_digests() {
        // The digest is pinned for every backend; the values being one
        // constant *is* the determinism contract, and pinning (rather than
        // comparing) makes any semantic drift a loud failure instead of a
        // silently moved baseline.
        let seq_a = congos_fingerprint(
            EngineBackend::Sequential,
            TopologySpec::Complete,
            42,
            NoFailures,
        );
        let seq_b = congos_fingerprint(
            EngineBackend::Sequential,
            TopologySpec::Complete,
            42,
            NoFailures,
        );
        assert_eq!(seq_a.trace, seq_b.trace, "sequential run not reproducible");
        assert_eq!(
            fnv1a(&seq_a.trace),
            GOLDEN_TRACE_DIGEST,
            "sequential golden trace digest moved (got {:#x})",
            fnv1a(&seq_a.trace)
        );
        for backend in BACKENDS {
            let par = congos_fingerprint(backend, TopologySpec::Complete, 42, NoFailures);
            assert_eq!(
                fnv1a(&par.trace),
                GOLDEN_TRACE_DIGEST,
                "{backend} golden trace digest moved (got {:#x})",
                fnv1a(&par.trace)
            );
        }
    }

    #[test]
    fn coalition_tap_preserves_golden_trace_digest() {
        // The source-prediction adversary's tap (E13) is a pure observer:
        // it gets no RNG handle and cannot perturb the engine, so a
        // tap-enabled run must reproduce the pinned golden digest
        // bit-for-bit — and the whole fingerprint must equal the untapped
        // run's — while still collecting a non-empty sighting log.
        use confidential_gossip::sim::ProcessId;
        use confidential_gossip::testkit::congos_fingerprint_tapped;

        let members: Vec<ProcessId> = [3usize, 7, 11].map(ProcessId::new).to_vec();
        for backend in [
            EngineBackend::Sequential,
            EngineBackend::Parallel { workers: 4 },
        ] {
            let (tapped, log) = congos_fingerprint_tapped(
                backend,
                TopologySpec::Complete,
                42,
                NoFailures,
                &members,
            );
            assert_eq!(
                fnv1a(&tapped.trace),
                GOLDEN_TRACE_DIGEST,
                "tap-enabled golden trace digest moved (got {:#x})",
                fnv1a(&tapped.trace)
            );
            let plain = congos_fingerprint(backend, TopologySpec::Complete, 42, NoFailures);
            assert_eq!(tapped, plain, "tap perturbed the execution");
            assert!(!log.is_empty(), "coalition of 3 must see traffic");
            assert!(
                log.iter().all(|s| members.contains(&s.observer)),
                "sightings from non-members"
            );
        }
    }
}

mod topology_differential {
    //! Backend equivalence off the complete graph: for every topology ×
    //! adversary × seed the sequential and parallel engines must produce
    //! bit-identical executions. Topology filtering happens in the
    //! delivery phase both backends share, so equivalence should hold *by
    //! construction* — this suite is the regression net that keeps it so.

    use confidential_gossip::adversary::{FailurePlan, NoFailures, ProxyKiller, RandomChurn};
    use confidential_gossip::sim::{EngineBackend, Tag, TopologySpec};
    use confidential_gossip::testkit::{congos_fingerprint, Fingerprint};

    const SEEDS: [u64; 3] = [21, 22, 23];
    const WORKER_COUNTS: [usize; 2] = [1, 4];

    /// The non-complete topologies under differential test.
    fn topologies() -> Vec<TopologySpec> {
        vec![
            TopologySpec::Expander { degree: 4 },
            TopologySpec::churn(0.05),
        ]
    }

    fn assert_equivalent<F: FailurePlan, M: Fn(u64) -> F>(mk_failures: M, what: &str) {
        for topology in topologies() {
            for seed in SEEDS {
                let seq = congos_fingerprint(
                    EngineBackend::Sequential,
                    topology,
                    seed,
                    mk_failures(seed),
                );
                for workers in WORKER_COUNTS {
                    let par: Fingerprint = congos_fingerprint(
                        EngineBackend::Parallel { workers },
                        topology,
                        seed,
                        mk_failures(seed),
                    );
                    assert_eq!(
                        seq, par,
                        "{what}: topology {topology} seed {seed} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_failures_identical_across_backends_per_topology() {
        assert_equivalent(|_| NoFailures, "no failures");
    }

    #[test]
    fn random_churn_identical_across_backends_per_topology() {
        // Process churn on top of link churn/sparseness: crashes, restarts
        // and missing links interleave in the same delivery phase.
        assert_equivalent(
            |seed| RandomChurn::new(0.01, 0.2, seed * 7 + 1),
            "random churn",
        );
    }

    #[test]
    fn adaptive_proxy_killer_identical_across_backends_per_topology() {
        assert_equivalent(
            |_| ProxyKiller::new(Tag("proxy"), 3).revive_after(24),
            "proxy killer",
        );
    }

    #[test]
    fn total_blackout_classifies_unreachable_not_missed() {
        // Regression for the latent "everyone hears everything" assumption:
        // churn with p = 1 over a complete base flips every pair every
        // round — no link ever exists. The run must complete without
        // panicking, classify every cross-process pair as `unreachable`
        // (exempt) rather than `missed` (a QoD violation), and stay clean
        // under the confidentiality audit: severed links can only shrink
        // what anyone learns.
        use confidential_gossip::adversary::{NoFailures, PoissonWorkload};
        use confidential_gossip::congos::CongosNode;
        use confidential_gossip::harness::{run, RunSpec};
        use confidential_gossip::sim::Round;

        let rounds = 96;
        let spec = RunSpec::new(16, 5, rounds).topology(TopologySpec::churn(1.0));
        let workload = PoissonWorkload::new(0.05, 3, 48, 5 ^ 0xD1FF).until(Round(rounds - 48));
        let out = run::<CongosNode, _, _>(spec, NoFailures, workload);
        assert!(out.qod.unreachable > 0, "blackout must exempt pairs");
        assert_eq!(
            out.qod.missed, 0,
            "unreachable pairs must not count as missed"
        );
        assert_eq!(
            out.qod.admissible, out.qod.on_time,
            "any admissible pair is local"
        );
        assert!(
            out.metrics.topology_drops() > 0,
            "the network must eat the traffic"
        );
        assert!(
            out.qod_theorem_holds(),
            "the theorem is vacuous off the complete graph"
        );

        // Same blackout under the full fingerprint: the audit stays clean.
        let fp = congos_fingerprint(
            EngineBackend::Sequential,
            TopologySpec::churn(1.0),
            5,
            NoFailures,
        );
        assert!(fp.audit.violations.is_empty(), "{:?}", fp.audit.violations);
    }

    #[test]
    fn sparse_topologies_actually_filter_traffic() {
        // Guard against a silently disabled layer: the expander run must
        // observe topology drops, and its trace must differ from the
        // complete-topology trace for the same seed.
        use confidential_gossip::adversary::NoFailures;
        let complete = congos_fingerprint(
            EngineBackend::Sequential,
            TopologySpec::Complete,
            21,
            NoFailures,
        );
        let sparse = congos_fingerprint(
            EngineBackend::Sequential,
            TopologySpec::Expander { degree: 4 },
            21,
            NoFailures,
        );
        assert_ne!(
            complete.trace, sparse.trace,
            "expander:4 must change the execution"
        );
    }
}
