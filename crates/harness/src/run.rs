//! Generic experiment runner with Quality-of-Delivery accounting.

use std::collections::HashMap;

use congos_adversary::predict::{CoalitionSpec, CoalitionTap, SightingLog};
use congos_adversary::{CrriAdversary, FailurePlan, InjectionLogEntry, InjectionPlan, RumorSpec};
use congos_sim::{Engine, EngineBackend, EngineConfig, Metrics, ProcessId, Round, TopologySpec};

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
    /// Whether to sample the memory probe (peak-RSS + allocator counters)
    /// around the engine run. Cheap (two `/proc` reads and a handful of
    /// atomic loads); on by default. When off, [`RunOutcome::mem`] is
    /// zeroed.
    pub probe_mem: bool,
    /// When `Some`, an observing coalition (the E13 source-prediction
    /// adversary) is attached to the run: its members record delivery
    /// metadata into [`RunOutcome::tap`]. The tap is an RNG-neutral
    /// observer, so the measured execution is bit-identical to an untapped
    /// run.
    pub tap: Option<TapSpec>,
}

/// An observing coalition attached to a run (see [`RunSpec::tap`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapSpec {
    /// Who observes: the deterministic coalition draw.
    pub coalition: CoalitionSpec,
    /// A process the coalition must not contain — normally the trial's
    /// rumor source (the adversary is *looking for* the source, so the
    /// source is not one of its observers).
    pub exclude: Option<ProcessId>,
}

impl TapSpec {
    /// The coalition members this spec resolves to for `n` processes.
    pub fn members(&self, n: usize) -> Vec<ProcessId> {
        self.coalition.members(n, self.exclude)
    }
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

    /// Enables or disables the memory probe (see [`RunSpec::probe_mem`]).
    pub fn probe_mem(mut self, enabled: bool) -> Self {
        self.probe_mem = enabled;
        self
    }

    /// Attaches an observing coalition (see [`RunSpec::tap`]).
    pub fn tap(mut self, tap: TapSpec) -> Self {
        self.tap = Some(tap);
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
            probe_mem: true,
            tap: None,
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

/// Quality-of-Delivery classification of (rumor, destination) pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QodSummary {
    /// Pairs where source and destination were continuously alive.
    pub admissible: usize,
    /// Admissible pairs delivered by the deadline.
    pub on_time: usize,
    /// Admissible pairs delivered after the deadline (a QoD violation!).
    pub late: usize,
    /// Admissible pairs never delivered (a QoD violation!).
    pub missed: usize,
    /// Pairs exempted by crashes (not admissible).
    pub inadmissible: usize,
    /// Pairs exempted by the topology: source and destination were
    /// continuously alive but no temporal path connected them within the
    /// deadline window, so no protocol could have delivered (only non-zero
    /// on non-complete topologies; the reachability check floods one hop
    /// per round ignoring crashes, so it never exempts a pair a protocol
    /// could actually have served).
    pub unreachable: usize,
}

impl QodSummary {
    /// `true` when every admissible pair was delivered on time.
    pub fn perfect(&self) -> bool {
        self.late == 0 && self.missed == 0
    }

    /// On-time fraction over admissible pairs (1.0 when none).
    pub fn on_time_rate(&self) -> f64 {
        if self.admissible == 0 {
            1.0
        } else {
            self.on_time as f64 / self.admissible as f64
        }
    }
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
    /// Crash events that occurred.
    pub crashes: usize,
    /// Delivery latencies (rounds from injection to first delivery) of the
    /// admissible pairs that were delivered.
    pub latencies: Vec<u64>,
    /// Memory accounting around the engine run (zeroed when
    /// [`RunSpec::probe_mem`] was off).
    pub mem: crate::mem::MemUsage,
    /// The observing coalition's sighting log when [`RunSpec::tap`] was
    /// set (`None` otherwise).
    pub tap: Option<SightingLog>,
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
/// injection plans.
pub fn run<P, F, W>(spec: RunSpec, failures: F, workload: W) -> RunOutcome
where
    P: GossipSystem + Send,
    P::Msg: Send + Sync,
    P::Input: From<RumorSpec> + Send,
    P::Output: Send,
    F: FailurePlan,
    W: InjectionPlan,
{
    run_with_factory(spec, P::new, failures, workload)
}

/// Runs protocol `P` built by `factory` (for configured deployments).
pub fn run_with_factory<P, F, W>(
    spec: RunSpec,
    factory: impl Fn(ProcessId, usize, u64) -> P + 'static,
    failures: F,
    workload: W,
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
    let mut tap = spec
        .tap
        .map(|t| CoalitionTap::new(spec.n, &t.members(spec.n)));
    let ((), mem) = timed_with_mem(spec.probe_mem, || match &mut tap {
        Some(tap) => engine.run_observed(spec.rounds, &mut adv, tap),
        None => engine.run(spec.rounds, &mut adv),
    });
    assert_eq!(
        engine.metrics().rejected_decisions(),
        0,
        "the failure/injection plans issued decisions the engine rejected"
    );
    let rejected: u64 = ProcessId::all(spec.n)
        .map(|p| engine.protocol(p).rejected())
        .sum();
    assert_eq!(
        rejected, 0,
        "a process rejected a message another process sent"
    );

    let injections = adv.injections().to_vec();
    let (deliveries, qod, latencies) = engine_qod(&engine, &injections);

    RunOutcome {
        name: P::NAME,
        topology: spec.topology,
        metrics: engine.metrics().clone(),
        deliveries,
        injections,
        qod,
        crashes: engine.liveness().crash_count(),
        latencies,
        mem,
        tap: tap.map(CoalitionTap::into_log),
    }
}

/// Runs `f` between two memory-probe samples (zeroed when `probe` is off)
/// and times it.
fn timed_with_mem<R>(probe: bool, f: impl FnOnce() -> R) -> (R, crate::mem::MemUsage) {
    let sample = || {
        if probe {
            crate::mem::MemSample::now()
        } else {
            crate::mem::MemSample::default()
        }
    };
    let before = sample();
    let t0 = std::time::Instant::now();
    let result = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let usage = crate::mem::MemUsage {
        before,
        after: sample(),
        wall_ms,
    };
    (result, usage)
}

/// The deliveries of a finished engine run, and their QoD classification
/// against the adversary's injection log — for the experiments that drive
/// an [`Engine`] themselves as much as for [`run_with_factory`].
///
/// Every (rumor, destination) pair is exempt when source or destination
/// was not continuously alive over the deadline window (`inadmissible`) or
/// the topology offered no temporal path within it (`unreachable`);
/// otherwise it is admissible, and on time, late or missed. Also returns
/// the delivery latencies of the on-time pairs.
pub fn engine_qod<P>(
    engine: &Engine<P>,
    injections: &[InjectionLogEntry],
) -> (Vec<DeliveryRecord>, QodSummary, Vec<u64>)
where
    P: GossipSystem,
    P::Input: From<RumorSpec>,
{
    let deliveries: Vec<DeliveryRecord> = engine
        .outputs()
        .iter()
        .map(|o| DeliveryRecord {
            wid: P::wid_of(&o.value),
            process: o.process,
            round: o.round,
        })
        .collect();
    // Each (rumor, process)'s first delivery round, indexed once. The
    // engine logs outputs in round order, so the first seen is the earliest.
    let mut first: HashMap<(u64, ProcessId), Round> = HashMap::new();
    for r in &deliveries {
        first.entry((r.wid, r.process)).or_insert(r.round);
    }
    let (liveness, topology) = (engine.liveness(), engine.topology());
    let mut qod = QodSummary::default();
    let mut latencies = Vec::new();
    for entry in injections {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        let src_ok = liveness.continuously_alive(entry.source, t, end);
        for d in &entry.spec.dest {
            if !src_ok || !liveness.continuously_alive(*d, t, end) {
                qod.inadmissible += 1;
                continue;
            }
            if !topology.reachable_within(entry.source, *d, t, end) {
                qod.unreachable += 1;
                continue;
            }
            qod.admissible += 1;
            match first.get(&(entry.spec.id, *d)).copied() {
                Some(r) if r <= end => {
                    qod.on_time += 1;
                    latencies.push(r - t);
                }
                Some(_) => qod.late += 1,
                None => qod.missed += 1,
            }
        }
    }
    (deliveries, qod, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{NoFailures, PoissonWorkload, RandomChurn};
    use congos_baselines::DirectNode;
    use congos_gossip::GossipNode;

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
        assert_eq!(out.crashes, 0);
        assert_eq!(out.name, "direct");
    }

    #[test]
    fn qod_accounts_churn_exemptions() {
        let spec = RunSpec::new(12, 3, 96);
        let w = PoissonWorkload::new(0.05, 3, 32, 4).until(Round(60));
        let churn = RandomChurn::new(0.01, 0.2, 5);
        let out = run::<GossipNode, _, _>(spec, churn, w);
        assert!(out.crashes > 0);
        assert!(out.qod.perfect(), "substrate QoD must hold: {:?}", out.qod);
        assert!(out.qod.inadmissible > 0, "churn should exempt some pairs");
    }
}
