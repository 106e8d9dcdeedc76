//! The harness's one engine-run path: [`run_with_factory`] builds, drives
//! and judges every experiment's [`Engine`], and [`run`] is its
//! default-construction shorthand.

use congos::NodeStats;
use congos_adversary::qod::classify;
pub use congos_adversary::qod::QodSummary;
use congos_adversary::{CrriAdversary, FailurePlan, InjectionLogEntry, InjectionPlan, RumorSpec};
use congos_sim::{
    Engine, EngineBackend, EngineConfig, LivenessLog, Metrics, NullObserver, Observer, ProcessId,
    Round, TopologySpec,
};

use crate::system::GossipSystem;

/// Parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Number of processes.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Rounds to execute.
    pub rounds: u64,
    /// Execution backend (outcome-invariant; affects wall clock only). The
    /// engine's default, [`EngineBackend::Auto`], unless a caller pins one
    /// to time it.
    pub backend: EngineBackend,
    /// Communication topology (changes the measured outcome, unlike the
    /// backend: sparser topologies drop undeliverable links).
    pub topology: TopologySpec,
}

impl RunSpec {
    /// Spec for `n` processes, `rounds` rounds, on the in-process engine
    /// (its default backend, which picks its own parallelism) and the
    /// complete topology. Experiments that honour the command line build
    /// their specs with [`RunDefaults::spec`] instead.
    pub fn new(n: usize, seed: u64, rounds: u64) -> Self {
        RunDefaults::default().spec(n, seed, rounds)
    }

    /// Pins the execution backend (the measured outcome is identical on
    /// every backend; only wall-clock time changes).
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the communication topology.
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }
}

/// What the command line chose for every run of one experiment: parsed once
/// by [`RunDefaults::from_args`] and handed down to
/// `experiments::*::run(full, &RunDefaults)`. The default is the paper's
/// complete network. There is no backend choice: the engine picks its own
/// parallelism, and every backend gives the same outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunDefaults {
    /// Communication topology (changes measured outcomes).
    pub topology: TopologySpec,
}

/// A malformed `--topology` flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// The flag was the last argument.
    MissingValue(&'static str),
    /// The flag's value did not parse; the string says why.
    BadValue(&'static str, String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue(flag, why) => write!(f, "bad {flag} value: {why}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl RunDefaults {
    /// Consumes `--topology <complete|expander:d|churn:p[@base]>` from
    /// `args` and returns the defaults it selects plus every argument it did
    /// not consume, in order, for the caller to interpret (or reject).
    pub fn from_args(args: &[String]) -> Result<(RunDefaults, Vec<String>), ArgError> {
        let mut defaults = RunDefaults::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--topology" => {
                    let v = it.next().ok_or(ArgError::MissingValue("--topology"))?;
                    defaults.topology = v
                        .parse()
                        .map_err(|why| ArgError::BadValue("--topology", why))?;
                }
                _ => rest.push(arg.clone()),
            }
        }
        Ok((defaults, rest))
    }

    /// A [`RunSpec`] for `n` processes, `rounds` rounds, on these defaults.
    pub fn spec(&self, n: usize, seed: u64, rounds: u64) -> RunSpec {
        RunSpec {
            n,
            seed,
            rounds,
            backend: EngineBackend::default(),
            topology: self.topology,
        }
    }
}

/// A delivery, correlated by workload id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Workload rumor id.
    pub wid: u64,
    /// Receiving process.
    pub process: ProcessId,
    /// Round of delivery.
    pub round: Round,
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Protocol display name.
    pub name: &'static str,
    /// The topology this run executed on.
    pub topology: TopologySpec,
    /// Per-round, per-tag message metrics.
    pub metrics: Metrics,
    /// All deliveries.
    pub deliveries: Vec<DeliveryRecord>,
    /// All injections the adversary's plan emitted.
    pub injections: Vec<InjectionLogEntry>,
    /// QoD classification.
    pub qod: QodSummary,
    /// Every crash and restart, per process.
    pub liveness: LivenessLog,
    /// [`GossipSystem::stats`] summed over every incarnation of every
    /// process: each one retired by a crash, and each one in a slot at the
    /// end of the run (all zero for the baselines).
    pub stats: NodeStats,
    /// Delivery latencies (rounds from injection to first delivery) of the
    /// admissible pairs that were delivered.
    pub latencies: Vec<u64>,
    /// Memory accounting around the engine run.
    pub mem: crate::mem::MemUsage,
}

impl RunOutcome {
    /// The `p`-th latency percentile in rounds (0 when nothing delivered).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        crate::stats::percentile(&self.latencies, p)
    }

    /// Whether the paper's Quality-of-Delivery theorem held for this run.
    ///
    /// The theorem (Definition 1 / Theorem 12) is proved on the reliable
    /// complete network: there, every admissible pair must be served on
    /// time and this method requires [`QodSummary::perfect`]. On sparse or
    /// churning topologies no such theorem exists — degradation is a
    /// *measurement*, not a failure — so the check is vacuously true.
    /// Experiments that assert QoD use this instead of hard-coding the
    /// everyone-hears-everything assumption.
    pub fn qod_theorem_holds(&self) -> bool {
        !self.topology.is_complete() || self.qod.perfect()
    }
}

/// Runs protocol `P` (default construction) under the given failure and
/// injection plans, unobserved.
pub fn run<P, F, W>(spec: RunSpec, failures: F, workload: W) -> RunOutcome
where
    P: GossipSystem + Send,
    P::Msg: Send + Sync,
    P::Input: From<RumorSpec> + Send,
    P::Output: Send,
    F: FailurePlan,
    W: InjectionPlan,
{
    run_with_factory(spec, P::new, failures, workload, &mut NullObserver)
}

/// Runs protocol `P` built by `factory` (for configured deployments) under
/// the given failure and injection plans, reporting every engine event to
/// `obs` (an auditor, a wiretap, a coalition tap; observers are RNG-neutral,
/// so the execution is the unobserved one).
///
/// # Panics
///
/// Panics if the engine rejected a decision of the plans (say, a crash of
/// a process already down), or if an incarnation rejected a message
/// ([`NodeStats::rejected`]): in the simulator every sender is correct.
pub fn run_with_factory<P, F, W>(
    spec: RunSpec,
    factory: impl Fn(ProcessId, usize, u64) -> P + 'static,
    failures: F,
    workload: W,
    obs: &mut impl Observer<P>,
) -> RunOutcome
where
    P: GossipSystem + Send,
    P::Msg: Send + Sync,
    P::Input: From<RumorSpec> + Send,
    P::Output: Send,
    F: FailurePlan,
    W: InjectionPlan,
{
    let mut engine = Engine::<P>::with_factory(
        EngineConfig::new(spec.n)
            .seed(spec.seed)
            .topology(spec.topology)
            .backend(spec.backend),
        factory,
    );
    let mut adv = CrriAdversary::new(failures, workload);
    let mut observers = (obs, RetiredStats::default());
    let before = crate::mem::MemSample::now();
    let t0 = std::time::Instant::now();
    engine.run_observed(spec.rounds, &mut adv, &mut observers);
    let mem = crate::mem::MemUsage {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        before,
        after: crate::mem::MemSample::now(),
    };
    assert_eq!(
        engine.metrics().rejected_decisions(),
        0,
        "the failure/injection plans issued decisions the engine rejected"
    );
    let (_, RetiredStats(mut stats)) = observers;
    for p in ProcessId::all(spec.n) {
        stats += engine.protocol(p).stats();
    }
    assert_eq!(
        stats.rejected, 0,
        "a process rejected a message another process sent"
    );

    let deliveries: Vec<DeliveryRecord> = engine
        .outputs()
        .iter()
        .map(|o| DeliveryRecord {
            wid: P::wid_of(&o.value),
            process: o.process,
            round: o.round,
        })
        .collect();
    let injections = adv.injections().to_vec();
    let verdict = classify(
        &injections,
        deliveries.iter().map(|r| (r.wid, r.process, r.round)),
        engine.liveness(),
        engine.topology(),
    );

    RunOutcome {
        name: P::NAME,
        topology: spec.topology,
        metrics: engine.metrics().clone(),
        deliveries,
        injections,
        qod: verdict.summary,
        liveness: engine.liveness().clone(),
        stats,
        latencies: verdict.latencies,
        mem,
    }
}

/// Sums the [`GossipSystem::stats`] of every incarnation a crash retires.
#[derive(Default)]
struct RetiredStats(NodeStats);

impl<P: GossipSystem<Input: From<RumorSpec>>> Observer<P> for RetiredStats {
    fn on_crash(&mut self, _round: Round, _process: ProcessId, retired: &P) {
        self.0 += retired.stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{
        NoFailures, NoInjections, PoissonWorkload, RandomChurn, ScheduledChurn,
    };
    use congos_baselines::DirectNode;
    use congos_gossip::standalone::{Delivered, GossipInput};
    use congos_gossip::GossipNode;
    use congos_sim::{Context, Inbox, Protocol};

    fn parse(args: &[&str]) -> Result<(RunDefaults, Vec<String>), ArgError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunDefaults::from_args(&args)
    }

    #[test]
    fn run_defaults_parse_topology() {
        let (d, rest) = parse(&["e1", "--topology", "expander:4", "--full"]).unwrap();
        assert_eq!(d.topology, TopologySpec::Expander { degree: 4 });
        assert_eq!(rest, ["e1", "--full"], "unconsumed arguments pass through");
        assert_eq!(parse(&[]), Ok((RunDefaults::default(), vec![])));

        let spec = d.spec(8, 1, 10);
        assert_eq!((spec.n, spec.seed, spec.rounds), (8, 1, 10));
        assert_eq!(spec.backend, EngineBackend::Auto, "the engine picks");
        assert_eq!(spec.topology, d.topology);
    }

    #[test]
    fn run_defaults_reject_malformed_flags_with_typed_errors() {
        assert!(matches!(
            parse(&["--topology", "ring"]),
            Err(ArgError::BadValue("--topology", _))
        ));
        assert_eq!(
            parse(&["--topology"]),
            Err(ArgError::MissingValue("--topology"))
        );
    }

    #[test]
    fn direct_run_is_perfect() {
        let spec = RunSpec::new(8, 1, 40);
        let w = PoissonWorkload::new(0.1, 3, 16, 2).until(Round(20));
        let out = run::<DirectNode, _, _>(spec, NoFailures, w);
        assert!(out.qod.perfect());
        assert!(out.qod.admissible > 0);
        assert_eq!(out.liveness.crash_count(), 0);
        assert_eq!(out.stats, NodeStats::default(), "baselines keep no stats");
        assert_eq!(out.name, "direct");
    }

    #[test]
    fn qod_accounts_churn_exemptions() {
        let spec = RunSpec::new(12, 3, 96);
        let w = PoissonWorkload::new(0.05, 3, 32, 4).until(Round(60));
        let churn = RandomChurn::new(0.01, 0.2, 5);
        let out = run::<GossipNode, _, _>(spec, churn, w);
        assert!(out.liveness.crash_count() > 0);
        assert!(out.qod.perfect(), "substrate QoD must hold: {:?}", out.qod);
        assert!(out.qod.inadmissible > 0, "churn should exempt some pairs");
    }

    #[test]
    #[should_panic(expected = "decisions the engine rejected")]
    fn a_rejected_plan_decision_fails_the_run() {
        // Both entries see p1 alive in the round's view, so the plan issues
        // the second crash of p1 after the engine applied the first.
        let p1 = ProcessId::new(1);
        let crash_twice = ScheduledChurn::new()
            .crash_at(Round(2), p1)
            .crash_at(Round(2), p1);
        let w = PoissonWorkload::new(0.1, 3, 16, 2).until(Round(4));
        run::<DirectNode, _, _>(RunSpec::new(4, 1, 8), crash_twice, w);
    }

    /// A protocol every process of which reports one rejected message.
    struct Rejecting;

    impl Protocol for Rejecting {
        type Msg = ();
        type Input = GossipInput;
        type Output = Delivered;

        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Rejecting
        }

        fn send(&mut self, _ctx: &mut Context<'_, Self>) {}

        fn receive(&mut self, _: &mut Context<'_, Self>, _: Inbox<'_, ()>, _: Option<GossipInput>) {
        }
    }

    impl GossipSystem for Rejecting {
        const NAME: &'static str = "rejecting";

        fn wid_of(out: &Delivered) -> u64 {
            out.wid
        }

        fn stats(&self) -> NodeStats {
            NodeStats {
                rejected: 1,
                ..NodeStats::default()
            }
        }
    }

    #[test]
    #[should_panic(expected = "a process rejected a message")]
    fn a_rejected_message_fails_the_run() {
        run::<Rejecting, _, _>(RunSpec::new(4, 1, 8), NoFailures, NoInjections);
    }
}
