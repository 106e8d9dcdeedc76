//! The lock-step round engine and the CRRI adversary interface.
//!
//! Round structure (matching Section 2 of the paper):
//!
//! 1. **Send phase** — every alive process runs [`Protocol::send`]; its
//!    queued messages become this round's outbox. All random choices for the
//!    round are made here.
//! 2. **Adversary phase** — the [`Adversary`] observes the execution so far
//!    *and this round's outboxes* (it is adaptive and omniscient), then
//!    chooses crashes, restarts and rumor injections. For a process crashing
//!    this round it picks which of that process's sent messages survive; for
//!    a process restarting this round it picks which incoming messages are
//!    delivered.
//! 3. **Delivery phase** — surviving messages are delivered to processes
//!    that are alive at the end of the round.
//! 4. **Compute phase** — every alive process runs [`Protocol::receive`]
//!    with its inbox and any injected input.
//!
//! Processes have no durable storage: a crash ends the process's
//! incarnation. The engine lends the retired state once to
//! [`Observer::on_crash`], drops it, and puts the next incarnation, built by
//! the factory but not started, in the slot. A restart starts it: it is told
//! the current global round via [`Protocol::on_start`].
//!
//! # Execution backends
//!
//! The send and compute phases are *embarrassingly parallel across
//! processes*: each process touches only its own state, RNG stream and
//! buffers. The engine exploits this with scoped worker threads while
//! preserving **bit-identical** traces and metrics on every
//! [`EngineBackend`] — backends differ only in how many chunks the one
//! round body in [`Engine::step_observed`] cuts the process range into:
//!
//! * every process draws from its own forked RNG stream, so concurrency
//!   cannot reorder random choices;
//! * workers write messages, tag-run sizes and outputs into the process
//!   they run, and the engine merges these *in process-id order* at the phase
//!   barrier — the merged order equals the sequential iteration order by
//!   construction;
//! * the adversary, delivery and bookkeeping phases stay sequential, so an
//!   adaptive adversary observes exactly the ordered outbox snapshot it
//!   would have seen sequentially.
//!
//! The default, [`EngineBackend::Auto`], picks per phase and round: one
//! worker per core the host exposes when the phase's message load reaches
//! [`AUTO_MIN_MSGS`], inline on the calling thread below it. Both loads are
//! known before the phase runs, so the choice is deterministic — and it
//! could not change the execution anyway.

use std::sync::OnceLock;

use rand::rngs::SmallRng;

use crate::clock::Round;
use crate::liveness::LivenessLog;
use crate::message::{EnvelopeRef, Inbox, OutboxView, SendColumns, Tag};
use crate::metrics::Metrics;
use crate::process::ProcessId;
use crate::rng::{fork_rng, fork_seed};
use crate::topology::{Topology, TopologySpec};
use crate::transport::MemTransport;

/// A synchronous message-passing protocol run by every process.
///
/// All processes run the same protocol type; per-process behavior derives
/// from the [`ProcessId`] passed to [`new`](Protocol::new).
pub trait Protocol: Sized {
    /// Message payload type.
    type Msg: Clone;
    /// Input injected by the adversary (a rumor, for gossip protocols).
    type Input;
    /// Output delivered to the local user (a reassembled rumor).
    type Output;

    /// Default initial state — used both at round 0 and after every restart
    /// (processes have no durable storage). `seed` is a fresh deterministic
    /// seed for this incarnation.
    fn new(id: ProcessId, n: usize, seed: u64) -> Self;

    /// Called once when the incarnation starts — round 0, or the round of
    /// its restart — with the current global round (the only information a
    /// restarted process may consult).
    fn on_start(&mut self, _round: Round) {}

    /// Send phase: queue messages via [`Context::send`]. Random choices made
    /// here are visible to the adaptive adversary.
    fn send(&mut self, ctx: &mut Context<'_, Self>);

    /// Compute phase: process the messages received this round and any
    /// injected input. Messages queued here are sent next round.
    ///
    /// The inbox is a borrowed view into the round's shared outbox columns —
    /// payloads a protocol wants to keep must be cloned out.
    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    );

    /// Wire size of a message payload in bytes, used for the per-round
    /// *communication* complexity metrics (Section 7 of the paper discusses
    /// bits, not just message counts). Defaults to 0 — protocols that want
    /// byte metering override this. CONGOS counts what its encoder writes
    /// (`congos::wire`); a protocol without a codec returns a formula.
    fn msg_size(_msg: &Self::Msg) -> u64 {
        0
    }
}

/// Per-process execution context handed to [`Protocol`] callbacks.
pub struct Context<'a, P: Protocol> {
    id: ProcessId,
    n: usize,
    round: Round,
    rng: &'a mut SmallRng,
    out: &'a mut SendColumns<P::Msg>,
    outputs: &'a mut Vec<OutputRecord<P::Output>>,
}

impl<P: Protocol> Context<'_, P> {
    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current global round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// This incarnation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// The RNG together with the buffer [`send`](Self::send) appends to, for
    /// a protocol whose sub-services draw and queue in one pass.
    pub fn rng_and_out(&mut self) -> (&mut SmallRng, &mut SendColumns<P::Msg>) {
        (self.rng, self.out)
    }

    /// Queues a point-to-point message. During the send phase it goes out
    /// this round; during the compute phase it goes out next round.
    ///
    /// Self-sends are delivered like any other message.
    pub fn send(&mut self, dst: ProcessId, msg: P::Msg, tag: Tag) {
        debug_assert!(dst.as_usize() < self.n, "send to unknown process {dst}");
        self.out.push(dst, tag, msg);
    }

    /// Queues `msg` to each of `targets`, in target order, as
    /// [`send`](Self::send) would one by one, but storing it once.
    pub fn send_each(
        &mut self,
        targets: impl IntoIterator<Item = ProcessId>,
        msg: P::Msg,
        tag: Tag,
    ) {
        let n = self.n;
        let targets = targets.into_iter().inspect(|dst| {
            debug_assert!(dst.as_usize() < n, "send to unknown process {dst}");
        });
        self.out.push_each(targets, tag, msg);
    }

    /// Delivers an output to the local user (recorded by the engine).
    pub fn output(&mut self, out: P::Output) {
        self.outputs.push(OutputRecord {
            round: self.round,
            process: self.id,
            value: out,
        });
    }

    /// Iterates over every process id in the system (including self).
    pub fn all_processes(&self) -> impl Iterator<Item = ProcessId> {
        ProcessId::all(self.n)
    }
}

/// An output delivered by some process, stamped with time and place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// Round of delivery.
    pub round: Round,
    /// Delivering process.
    pub process: ProcessId,
    /// The delivered value.
    pub value: O,
}

/// The adversary's view of the current round, presented *after* the send
/// phase — so its decisions may depend on the round's random choices, as the
/// CRRI adversary of the paper does.
#[derive(Debug)]
pub struct RoundView<'a> {
    /// Current round.
    pub round: Round,
    /// `alive[p]` — liveness at the start of the round.
    pub alive: &'a [bool],
    /// Every message queued this round, read in place from the round's
    /// outbox columns.
    pub outbox: OutboxView<'a>,
}

impl RoundView<'_> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.alive.len()
    }

    /// Ids of processes alive at the start of the round.
    pub fn alive_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, a)| **a)
            .map(|(i, _)| ProcessId::new(i))
    }
}

/// What happens to the messages already sent by a process that crashes this
/// round (the paper: "some of the messages sent by p in round t may be
/// delivered, and some may be lost" — the adversary chooses).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SentPolicy {
    /// All of the crashing process's round-`t` messages are delivered.
    DeliverAll,
    /// All are lost (the default, and the strongest attack).
    #[default]
    DropAll,
    /// Only messages to the listed destinations are delivered.
    DeliverOnlyTo(Vec<ProcessId>),
}

impl SentPolicy {
    fn allows(&self, dst: ProcessId) -> bool {
        match self {
            SentPolicy::DeliverAll => true,
            SentPolicy::DropAll => false,
            SentPolicy::DeliverOnlyTo(set) => set.contains(&dst),
        }
    }
}

/// What happens to messages addressed to a process restarting this round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum IncomingPolicy {
    /// All messages sent to the restarting process this round are delivered.
    DeliverAll,
    /// All are lost (the default).
    #[default]
    DropAll,
    /// Only messages from the listed sources are delivered.
    DeliverOnlyFrom(Vec<ProcessId>),
}

impl IncomingPolicy {
    fn allows(&self, src: ProcessId) -> bool {
        match self {
            IncomingPolicy::DeliverAll => true,
            IncomingPolicy::DropAll => false,
            IncomingPolicy::DeliverOnlyFrom(set) => set.contains(&src),
        }
    }
}

/// A crash decision for one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Victim (must be alive; at most one liveness event per process per
    /// round).
    pub process: ProcessId,
    /// Fate of the victim's messages already sent this round.
    pub sent: SentPolicy,
}

impl CrashSpec {
    /// Crash `process`, dropping all of its round-`t` messages.
    pub fn dropping(process: ProcessId) -> Self {
        CrashSpec {
            process,
            sent: SentPolicy::DropAll,
        }
    }

    /// Crash `process` but let its round-`t` messages through.
    pub fn delivering(process: ProcessId) -> Self {
        CrashSpec {
            process,
            sent: SentPolicy::DeliverAll,
        }
    }
}

/// The adversary's decisions for one round.
#[derive(Clone, Debug)]
pub struct RoundDecision<I> {
    /// Processes to crash this round.
    pub crashes: Vec<CrashSpec>,
    /// Processes to restart this round, with the fate of their inbox.
    pub restarts: Vec<(ProcessId, IncomingPolicy)>,
    /// Rumors to inject — at most one per process per round, only at alive
    /// processes (others are dropped and logged as undelivered).
    pub injections: Vec<(ProcessId, I)>,
}

impl<I> Default for RoundDecision<I> {
    fn default() -> Self {
        RoundDecision {
            crashes: Vec::new(),
            restarts: Vec::new(),
            injections: Vec::new(),
        }
    }
}

impl<I> RoundDecision<I> {
    /// A decision with no crashes, restarts or injections.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The CRRI adversary: adaptive, omniscient, in full control of crashes,
/// restarts and rumor injection.
pub trait Adversary<P: Protocol> {
    /// Decides this round's events after observing the round's outboxes.
    fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<P::Input>;
}

/// The trivial adversary: no failures, no injections.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullAdversary;

impl<P: Protocol> Adversary<P> for NullAdversary {
    fn decide(&mut self, _view: &RoundView<'_>) -> RoundDecision<P::Input> {
        RoundDecision::none()
    }
}

/// Passive observer of engine events — used by the confidentiality auditor,
/// which must see every delivered message to track fragment knowledge.
///
/// All methods default to no-ops.
pub trait Observer<P: Protocol> {
    /// A message was delivered (post adversary filtering). The envelope is
    /// a borrowed view into the round's outbox columns.
    fn on_deliver(&mut self, _env: EnvelopeRef<'_, P::Msg>) {}
    /// An input was injected at an alive process.
    fn on_inject(&mut self, _round: Round, _process: ProcessId, _input: &P::Input) {}
    /// An output was produced.
    fn on_output(&mut self, _rec: &OutputRecord<P::Output>) {}
    /// A process crashed; `retired` is its incarnation's last state, lent
    /// once and dropped when this returns.
    fn on_crash(&mut self, _round: Round, _process: ProcessId, _retired: &P) {}
    /// A process restarted (its fresh incarnation already started).
    fn on_restart(&mut self, _round: Round, _process: ProcessId) {}
    /// A round completed.
    fn on_round_end(&mut self, _round: Round) {}
}

/// Observer that records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl<P: Protocol> Observer<P> for NullObserver {}

/// Fan-out: `(a, b)` reports every event to `a`, then to `b`. Nest pairs
/// to watch a run with more than two observers.
impl<P: Protocol, A: Observer<P>, B: Observer<P>> Observer<P> for (A, B) {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, P::Msg>) {
        self.0.on_deliver(env);
        self.1.on_deliver(env);
    }
    fn on_inject(&mut self, round: Round, process: ProcessId, input: &P::Input) {
        self.0.on_inject(round, process, input);
        self.1.on_inject(round, process, input);
    }
    fn on_output(&mut self, rec: &OutputRecord<P::Output>) {
        self.0.on_output(rec);
        self.1.on_output(rec);
    }
    fn on_crash(&mut self, round: Round, process: ProcessId, retired: &P) {
        self.0.on_crash(round, process, retired);
        self.1.on_crash(round, process, retired);
    }
    fn on_restart(&mut self, round: Round, process: ProcessId) {
        self.0.on_restart(round, process);
        self.1.on_restart(round, process);
    }
    fn on_round_end(&mut self, round: Round) {
        self.0.on_round_end(round);
        self.1.on_round_end(round);
    }
}

/// Forwarding: a borrowed observer watches as the owner would, so a caller
/// can pair its observer with one of its own.
impl<P: Protocol, O: Observer<P> + ?Sized> Observer<P> for &mut O {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, P::Msg>) {
        (**self).on_deliver(env);
    }
    fn on_inject(&mut self, round: Round, process: ProcessId, input: &P::Input) {
        (**self).on_inject(round, process, input);
    }
    fn on_output(&mut self, rec: &OutputRecord<P::Output>) {
        (**self).on_output(rec);
    }
    fn on_crash(&mut self, round: Round, process: ProcessId, retired: &P) {
        (**self).on_crash(round, process, retired);
    }
    fn on_restart(&mut self, round: Round, process: ProcessId) {
        (**self).on_restart(round, process);
    }
    fn on_round_end(&mut self, round: Round) {
        (**self).on_round_end(round);
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    n: usize,
    seed: u64,
    topology: TopologySpec,
    backend: EngineBackend,
}

impl EngineConfig {
    /// Configuration for `n` processes with seed 0 on the complete topology
    /// and the [`EngineBackend::Auto`] backend.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        EngineConfig {
            n,
            seed: 0,
            topology: TopologySpec::Complete,
            backend: EngineBackend::Auto,
        }
    }

    /// Sets the master seed (every run with the same config and adversary is
    /// bit-identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the communication topology (default: [`TopologySpec::Complete`],
    /// the paper's reliable complete network).
    ///
    /// # Panics
    ///
    /// Panics if the spec cannot be instantiated over `n` processes.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        if let Err(e) = spec.validate(self.n) {
            panic!("invalid topology {spec} for n={}: {e}", self.n);
        }
        self.topology = spec;
        self
    }

    /// Pins the execution backend (default: [`EngineBackend::Auto`]). The
    /// execution is bit-identical on every backend; only wall-clock time
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics on `Parallel { workers: 0 }`.
    pub fn backend(mut self, backend: EngineBackend) -> Self {
        assert!(
            backend != EngineBackend::Parallel { workers: 0 },
            "parallel backend needs at least one worker"
        );
        self.backend = backend;
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Master seed.
    pub fn master_seed(&self) -> u64 {
        self.seed
    }
}

/// Messages in a phase's load from which [`EngineBackend::Auto`] fans the
/// phase out: the previous round's outbox for the send phase, this round's
/// deliveries for the compute phase. On CONGOS with 2 workers (pipeline,
/// churn, collusion and light configurations, n = 16 to 1024), phases
/// below 64 messages ran faster inline, phases of 64–127 messages were
/// split, and every load bucket from 128 messages up ran faster fanned out.
pub const AUTO_MIN_MSGS: usize = 128;

/// How the engine executes the per-process phases of a round.
///
/// Every backend produces a **bit-identical** execution: identical delivery
/// sets, metrics, outputs and observer event order for the same config,
/// adversary and seed (see the module docs for why). A fan-out costs a
/// thread spawn per extra worker, so it wins only when per-process work is
/// substantial; [`Auto`](Self::Auto) fans out only then.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineBackend {
    /// One worker per core the host exposes
    /// (`std::thread::available_parallelism`), used on a phase only when
    /// its load reaches [`AUTO_MIN_MSGS`] messages; lighter phases run
    /// inline (the default).
    #[default]
    Auto,
    /// One thread executes processes in id order on every round.
    Sequential,
    /// Worker threads split processes into contiguous id chunks for the
    /// send and compute phases of every round; adversary and delivery stay
    /// sequential.
    Parallel {
        /// Number of workers (>= 1): chunk 0 runs on the calling thread,
        /// every other chunk on a scoped thread of its own.
        /// `Parallel { workers: 1 }` is the sequential schedule.
        workers: usize,
    },
}

impl EngineBackend {
    /// A parallel backend sized to the machine, fanning out on every round.
    pub fn parallel_auto() -> Self {
        EngineBackend::Parallel {
            workers: host_parallelism(),
        }
    }

    /// Worker count of a heavy phase: the host's parallelism for `Auto`,
    /// 1 for `Sequential`, `workers` for `Parallel`.
    pub fn workers(&self) -> usize {
        match self {
            EngineBackend::Auto => host_parallelism(),
            EngineBackend::Sequential => 1,
            EngineBackend::Parallel { workers } => *workers,
        }
    }

    /// Worker count of a phase whose load is `msgs` messages.
    fn workers_for(&self, msgs: usize) -> usize {
        match self {
            EngineBackend::Auto if msgs < AUTO_MIN_MSGS => 1,
            _ => self.workers(),
        }
    }
}

/// `std::thread::available_parallelism` (min 1), read once per process: it
/// reads cgroup files on every call.
fn host_parallelism() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

impl std::fmt::Display for EngineBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBackend::Auto => write!(f, "auto"),
            EngineBackend::Sequential => write!(f, "seq"),
            EngineBackend::Parallel { workers } => write!(f, "par:{workers}"),
        }
    }
}

/// One incarnation of one process: the protocol instance, its forked RNG
/// stream and the two buffers its callbacks write. The engine holds `n` of
/// these and a [`NodeDriver`](crate::transport::NodeDriver) one, so both run
/// the model's per-process step — [`send`](Self::send), then
/// [`receive`](Self::receive) — from this one copy.
pub(crate) struct Process<P: Protocol> {
    pub(crate) id: ProcessId,
    n: usize,
    generation: u64,
    pub(crate) proto: P,
    rng: SmallRng,
    /// What [`Context::send`] appends to and the round transport drains.
    /// Compute-phase sends wait here and leave next round, ahead of that
    /// round's send-phase messages.
    pub(crate) out: SendColumns<P::Msg>,
    /// One `(tag, count, bytes)` entry per run of equal tags in `out`,
    /// filled by [`meter`](Self::meter).
    sent: Vec<(Tag, u64, u64)>,
    pub(crate) outputs: Vec<OutputRecord<P::Output>>,
}

impl<P: Protocol> Process<P> {
    /// Builds incarnation `generation` of process `id`, not yet started: a
    /// fresh protocol instance (processes have no durable storage) on the
    /// seed and RNG stream forked from `(master_seed, id, generation)`.
    pub(crate) fn new(
        factory: impl FnOnce(ProcessId, usize, u64) -> P,
        master_seed: u64,
        id: ProcessId,
        n: usize,
        generation: u64,
    ) -> Self {
        Process {
            id,
            n,
            generation,
            proto: factory(id, n, fork_seed(master_seed, id, generation)),
            rng: fork_rng(master_seed, id, generation),
            out: SendColumns::default(),
            sent: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Starts this incarnation at `round` ([`Protocol::on_start`]).
    pub(crate) fn start(&mut self, round: Round) {
        self.proto.on_start(round);
    }

    fn step(&mut self, round: Round, phase: impl FnOnce(&mut P, &mut Context<'_, P>)) {
        let mut ctx = Context {
            id: self.id,
            n: self.n,
            round,
            rng: &mut self.rng,
            out: &mut self.out,
            outputs: &mut self.outputs,
        };
        phase(&mut self.proto, &mut ctx);
    }

    /// Send phase of `round`.
    pub(crate) fn send(&mut self, round: Round) {
        self.step(round, |proto, ctx| proto.send(ctx));
    }

    /// Compute phase of `round`.
    pub(crate) fn receive(
        &mut self,
        round: Round,
        inbox: Inbox<'_, P::Msg>,
        input: Option<P::Input>,
    ) {
        self.step(round, |proto, ctx| proto.receive(ctx, inbox, input));
    }

    /// Sizes the queued messages. The engine calls this inside its parallel
    /// send phase so that the sequential merge only adds up runs.
    fn meter(&mut self) {
        self.out.tag_runs(P::msg_size, &mut self.sent);
    }
}

/// A process's one liveness event of the current round, with the fate the
/// adversary chose for its messages.
enum Transition {
    /// Crashed: which of its messages sent this round survive.
    Crash(SentPolicy),
    /// Restarted: which messages sent to it this round it receives.
    Restart(IncomingPolicy),
}

/// The lock-step execution engine.
pub struct Engine<P: Protocol + 'static> {
    cfg: EngineConfig,
    round: Round,
    /// One incarnation per process: the running one, or for a crashed
    /// process the next one, built but not started.
    procs: Vec<Process<P>>,
    /// `alive[p]` — liveness right now.
    alive: Vec<bool>,
    factory: Box<dyn Fn(ProcessId, usize, u64) -> P>,
    metrics: Metrics,
    liveness: LivenessLog,
    outputs: Vec<OutputRecord<P::Output>>,
    /// The in-memory delivery substrate: topology, this round's merged
    /// columnar outbox and the per-process index-list inboxes into it. The
    /// engine drives it through its inherent zero-copy methods; networked
    /// deployments drive a socket transport through the same
    /// [`RoundTransport`](crate::transport::RoundTransport) superstep.
    mem: MemTransport<P::Msg>,
    /// This round's injected inputs (reused across rounds).
    inputs: Vec<Option<P::Input>>,
    /// This round's liveness event of each process, if it had one (reused
    /// across rounds; sized by the first round).
    transitions: Vec<Option<Transition>>,
}

impl<P: Protocol + 'static> Engine<P> {
    /// Creates an engine with all processes alive in their default initial
    /// state ([`Protocol::new`]).
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_factory(cfg, P::new)
    }

    /// Creates an engine whose processes are built by `factory` — used to
    /// thread deployment configuration into protocol state. The factory also
    /// builds each crashed process's next incarnation, so a restarted
    /// process is reset to the same configured initial state (it keeps
    /// configuration and `[n]`, nothing else — exactly the paper's "default
    /// initial state consisting only of the algorithm and `[n]`").
    pub fn with_factory<F>(cfg: EngineConfig, factory: F) -> Self
    where
        F: Fn(ProcessId, usize, u64) -> P + 'static,
    {
        let factory: Box<dyn Fn(ProcessId, usize, u64) -> P> = Box::new(factory);
        let procs = ProcessId::all(cfg.n)
            .map(|id| {
                let mut p = Process::new(&factory, cfg.seed, id, cfg.n, 0);
                p.start(Round::ZERO);
                p
            })
            .collect();
        Engine {
            mem: MemTransport::new(cfg.topology, cfg.n, cfg.seed),
            cfg,
            round: Round::ZERO,
            procs,
            alive: vec![true; cfg.n],
            factory,
            metrics: Metrics::new(),
            liveness: LivenessLog::new(cfg.n),
            outputs: Vec::new(),
            inputs: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// The round about to execute (i.e. completed rounds are `0..round`).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Accumulated message metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The communication topology this engine delivers over.
    pub fn topology(&self) -> &Topology {
        self.mem.topology()
    }

    /// Crash/restart history.
    pub fn liveness(&self) -> &LivenessLog {
        &self.liveness
    }

    /// All outputs produced so far.
    pub fn outputs(&self) -> &[OutputRecord<P::Output>] {
        &self.outputs
    }

    /// Consumes the engine, returning the full output log.
    pub fn into_outputs(self) -> Vec<OutputRecord<P::Output>> {
        self.outputs
    }

    /// Read access to a process's protocol state (for white-box assertions
    /// in tests; the protocols themselves never use this). For a crashed
    /// process this is its next incarnation, built but not started: the
    /// crashed one's state went with the crash ([`Observer::on_crash`]).
    pub fn protocol(&self, p: ProcessId) -> &P {
        &self.procs[p.as_usize()].proto
    }

    /// Merges the send phase's results in process-id order: tag runs into
    /// [`Metrics`], the per-process send columns onto the round outbox
    /// (index ranges of the shared columns, no envelope moves), outputs into
    /// the global output log. This is the phase barrier that makes the
    /// parallel backend's observable order equal the sequential order.
    fn merge_send_results(&mut self) {
        // Last round's routing rows go here (its payloads went when its
        // compute phase ended); the columns keep their capacity.
        self.mem.begin_round(self.round);
        for p in &mut self.procs {
            for (tag, count, bytes) in p.sent.drain(..) {
                self.metrics.record_sends(tag, count, bytes);
            }
            self.mem.append_outbox(p.id, &mut p.out);
            self.outputs.append(&mut p.outputs);
        }
    }

    /// Merges compute-phase outputs in process-id order.
    fn merge_compute_outputs(&mut self) {
        for p in &mut self.procs {
            self.outputs.append(&mut p.outputs);
        }
    }

    /// The strictly sequential middle of a round: present the merged outbox
    /// to the adversary, apply crashes and restarts, deliver surviving
    /// messages into per-process inboxes, and stage injected inputs. Returns
    /// the number of messages delivered. Decisions that are invalid this
    /// round are skipped and counted in [`Metrics::rejected_decisions`] — in
    /// every build profile.
    fn prepare_round<A: Adversary<P>, O: Observer<P>>(
        &mut self,
        adversary: &mut A,
        obs: &mut O,
    ) -> usize {
        let n = self.cfg.n;
        let round = self.round;

        // ---- Phase 2: adversary. --------------------------------------
        let view = RoundView {
            round,
            alive: &self.alive,
            outbox: self.mem.columns().view(),
        };
        let decision = adversary.decide(&view);

        // One liveness event per process per round.
        let transitions = &mut self.transitions;
        transitions.clear();
        transitions.resize_with(n, || None);
        for spec in decision.crashes {
            let i = spec.process.as_usize();
            if !self.alive[i] || transitions[i].is_some() {
                self.metrics.record_rejected_decision();
                continue;
            }
            transitions[i] = Some(Transition::Crash(spec.sent));
            self.alive[i] = false;
            self.liveness.record_crash(spec.process, round);
            // The crash ends the incarnation: its successor waits in the
            // slot, and the retired state is observed once, then dropped.
            let generation = self.procs[i].generation + 1;
            let next = Process::new(&self.factory, self.cfg.seed, spec.process, n, generation);
            let retired = std::mem::replace(&mut self.procs[i], next);
            obs.on_crash(round, spec.process, &retired.proto);
        }

        for (p, policy) in decision.restarts {
            let i = p.as_usize();
            if self.alive[i] || transitions[i].is_some() {
                self.metrics.record_rejected_decision();
                continue;
            }
            transitions[i] = Some(Transition::Restart(policy));
            self.procs[i].start(round);
            self.alive[i] = true;
            self.liveness.record_restart(p, round);
            obs.on_restart(round, p);
        }

        // ---- Phase 3: delivery. ---------------------------------------
        // The filter chain (crash sent-policy → topology → receiver alive →
        // restart incoming-policy → observe) lives in MemTransport; the
        // engine supplies the adversary's gates as closures over this
        // round's decisions.
        let mut delivered = 0;
        {
            let alive = &self.alive;
            let metrics = &mut self.metrics;
            self.mem.route_with(
                round,
                |src, dst| match &transitions[src.as_usize()] {
                    Some(Transition::Crash(policy)) => policy.allows(dst),
                    _ => true,
                },
                |src, dst| {
                    let di = dst.as_usize();
                    if !alive[di] {
                        return false; // crashed receivers receive nothing
                    }
                    match &transitions[di] {
                        Some(Transition::Restart(policy)) => policy.allows(src),
                        _ => true,
                    }
                },
                |env| {
                    delivered += 1;
                    obs.on_deliver(env);
                },
                || metrics.record_topology_drop(),
            );
        }

        // ---- Injections (staged for the compute phase). ---------------
        self.inputs.clear();
        self.inputs.resize_with(n, || None);
        for (p, input) in decision.injections {
            let i = p.as_usize();
            if self.inputs[i].is_some() {
                // At most one injection per process per round: the first
                // input stands.
                self.metrics.record_rejected_decision();
                continue;
            }
            // An injection at a crashed process is lost.
            if self.alive[i] {
                obs.on_inject(round, p, &input);
                self.inputs[i] = Some(input);
            }
        }
        delivered
    }

    /// End-of-round bookkeeping: meter this round's deliveries, notify the
    /// observer, advance the clock.
    fn complete_round<O: Observer<P>>(&mut self, round: Round, out_start: usize, obs: &mut O) {
        for rec in &self.outputs[out_start..] {
            self.metrics.record_delivery();
            obs.on_output(rec);
        }
        obs.on_round_end(round);
        self.round = round.next();
    }
}

/// Runs `work(first_id, part)` on each contiguous id chunk of `parts`
/// (chunk `c` starts at `c * chunk`, independent of scheduling, so work
/// assignment is deterministic): chunk 0 on the calling thread, every other
/// chunk on a scoped thread of its own, all joined before returning. A
/// single chunk — the sequential schedule — runs inline without a scope.
fn for_each_chunk<T: Send>(
    chunk: usize,
    parts: impl Iterator<Item = T>,
    work: impl Fn(usize, T) + Sync,
) {
    let mut parts = parts.enumerate().peekable();
    let Some((_, first)) = parts.next() else {
        return;
    };
    if parts.peek().is_none() {
        return work(0, first);
    }
    let work = &work;
    std::thread::scope(|s| {
        for (ci, part) in parts {
            s.spawn(move || work(ci * chunk, part));
        }
        work(0, first);
    });
}

impl<P> Engine<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Send + Sync,
    P::Input: Send,
    P::Output: Send,
{
    /// Runs `rounds` rounds under `adversary`.
    pub fn run<A: Adversary<P>>(&mut self, rounds: u64, adversary: &mut A) {
        self.run_observed(rounds, adversary, &mut NullObserver);
    }

    /// Runs `rounds` rounds under `adversary`, reporting events to `obs`.
    pub fn run_observed<A: Adversary<P>, O: Observer<P>>(
        &mut self,
        rounds: u64,
        adversary: &mut A,
        obs: &mut O,
    ) {
        for _ in 0..rounds {
            self.step_observed(adversary, obs);
        }
    }

    /// Executes one round.
    pub fn step<A: Adversary<P>>(&mut self, adversary: &mut A) {
        self.step_observed(adversary, &mut NullObserver);
    }

    /// Executes one round, reporting events to `obs` — the one round body,
    /// on whichever backend [`EngineConfig::backend`] selected (for
    /// [`EngineBackend::Auto`], per phase, by the phase's message load).
    pub fn step_observed<A: Adversary<P>, O: Observer<P>>(
        &mut self,
        adversary: &mut A,
        obs: &mut O,
    ) {
        let n = self.cfg.n;
        let round = self.round;
        self.metrics.begin_round();
        let out_start = self.outputs.len();

        // ---- Phase 1: send. -------------------------------------------
        // The transport still holds last round's routing rows: their count
        // is the send phase's load estimate.
        let chunk = n.div_ceil(self.cfg.backend.workers_for(self.mem.outbox_len()));
        let alive = &self.alive;
        for_each_chunk(chunk, self.procs.chunks_mut(chunk), |base, procs| {
            for (j, p) in procs.iter_mut().enumerate() {
                if alive[base + j] {
                    p.send(round);
                    p.meter();
                }
            }
        });
        // Barrier: workers joined; merge in process-id order.
        self.merge_send_results();

        // ---- Phases 2 & 3: adversary + delivery (always sequential). --
        let delivered = self.prepare_round(adversary, obs);

        // ---- Phase 4: compute. ----------------------------------------
        let chunk = n.div_ceil(self.cfg.backend.workers_for(delivered));
        let alive = &self.alive;
        let outbox = self.mem.columns();
        let inboxes = self.mem.inbox_lists();
        for_each_chunk(
            chunk,
            self.procs
                .chunks_mut(chunk)
                .zip(self.inputs.chunks_mut(chunk)),
            |base, (procs, inputs)| {
                for (j, (p, input)) in procs.iter_mut().zip(inputs).enumerate() {
                    if alive[base + j] {
                        let inbox = Inbox::columnar(outbox, &inboxes[base + j], round);
                        p.receive(round, inbox, input.take());
                    }
                }
            },
        );
        self.merge_compute_outputs();
        // A payload lives until its round's compute phase ends: a sender
        // that keeps a shared buffer (a gossip push batch) holds it alone
        // again by its next send phase.
        self.mem.drop_payloads();

        self.complete_round(round, out_start, obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Every process pings its successor each round and reports each ping.
    struct Ring;

    impl Protocol for Ring {
        type Msg = u64;
        type Input = u64;
        type Output = (ProcessId, u64);

        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Ring
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.id().as_usize() + 1) % ctx.n());
            let r = ctx.round().as_u64();
            ctx.send(next, r, Tag("ping"));
        }
        fn receive(
            &mut self,
            ctx: &mut Context<'_, Self>,
            inbox: Inbox<'_, u64>,
            input: Option<u64>,
        ) {
            for env in inbox {
                let src = env.src;
                let payload = *env.payload;
                ctx.output((src, payload));
            }
            if let Some(v) = input {
                ctx.output((ctx.id(), v + 1000));
            }
        }
    }

    #[test]
    fn failure_free_ring_delivers_everything() {
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        e.run(3, &mut NullAdversary);
        // 4 pings per round × 3 rounds.
        assert_eq!(e.metrics().total(), 12);
        assert_eq!(e.metrics().max_per_round(), 4);
        assert_eq!(e.outputs().len(), 12);
        assert_eq!(e.metrics().deliveries(), 12);
    }

    struct ScriptedAdversary {
        script: Vec<(u64, RoundDecision<u64>)>,
    }

    impl<P: Protocol<Input = u64>> Adversary<P> for ScriptedAdversary {
        fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<u64> {
            let t = view.round.as_u64();
            match self.script.iter().position(|(r, _)| *r == t) {
                Some(i) => self.script.remove(i).1,
                None => RoundDecision::none(),
            }
        }
    }

    #[test]
    fn crash_drops_sent_and_received_messages() {
        // Crash p1 in round 0 with DropAll: its ping to p2 dies, and the
        // ping from p0 to p1 also dies (crashed receivers receive nothing).
        let mut adv = ScriptedAdversary {
            script: vec![(
                0,
                RoundDecision {
                    crashes: vec![CrashSpec::dropping(ProcessId::new(1))],
                    restarts: vec![],
                    injections: vec![],
                },
            )],
        };
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        e.step(&mut adv);
        // Sent messages are still metered (complexity counts sends).
        assert_eq!(e.metrics().round(0).total(), 4);
        // p2 got nothing, p1 got nothing: only p0←p3 and p3←p2 delivered.
        assert_eq!(e.outputs().len(), 2);
        assert!(!e.liveness().alive_at_end(ProcessId::new(1), Round(0)));
        // Crashed process does not send in round 1: 3 messages.
        e.step(&mut adv);
        assert_eq!(e.metrics().round(1).total(), 3);
    }

    #[test]
    fn crash_with_deliver_all_lets_final_messages_through() {
        let mut adv = ScriptedAdversary {
            script: vec![(
                0,
                RoundDecision {
                    crashes: vec![CrashSpec::delivering(ProcessId::new(1))],
                    restarts: vec![],
                    injections: vec![],
                },
            )],
        };
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        e.step(&mut adv);
        // p1's ping to p2 survives; p1 itself receives nothing.
        assert_eq!(e.outputs().len(), 3);
    }

    #[test]
    fn restart_resets_and_rejoins() {
        let p1 = ProcessId::new(1);
        let mut adv = ScriptedAdversary {
            script: vec![
                (
                    0,
                    RoundDecision {
                        crashes: vec![CrashSpec::dropping(p1)],
                        restarts: vec![],
                        injections: vec![],
                    },
                ),
                (
                    2,
                    RoundDecision {
                        crashes: vec![],
                        restarts: vec![(p1, IncomingPolicy::DeliverAll)],
                        injections: vec![],
                    },
                ),
            ],
        };
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        e.run(4, &mut adv);
        assert!(e.liveness().alive_at_end(p1, Round(3)));
        // Round 2: p1 restarted mid-round, receives p0's ping (DeliverAll)
        // but did not send. Round 3: fully back, sends again.
        assert_eq!(e.metrics().round(2).total(), 3);
        assert_eq!(e.metrics().round(3).total(), 4);
        assert!(e.liveness().continuously_alive(p1, Round(3), Round(3)));
        assert!(!e.liveness().continuously_alive(p1, Round(0), Round(3)));
    }

    #[test]
    fn restart_with_drop_all_loses_inflight_messages() {
        let p1 = ProcessId::new(1);
        let mut adv = ScriptedAdversary {
            script: vec![
                (
                    0,
                    RoundDecision {
                        crashes: vec![CrashSpec::dropping(p1)],
                        restarts: vec![],
                        injections: vec![],
                    },
                ),
                (
                    1,
                    RoundDecision {
                        crashes: vec![],
                        restarts: vec![(p1, IncomingPolicy::DropAll)],
                        injections: vec![],
                    },
                ),
            ],
        };
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        e.run(2, &mut adv);
        // Round 1 outputs: p2←p1? no (p1 crashed at send time of round 1 —
        // restart happens after send phase). p1's inbox dropped by policy.
        // Delivered: p3←p2, p0←p3. p2←p1 missing, p1←p0 dropped.
        let round1: Vec<_> = e.outputs().iter().filter(|o| o.round == Round(1)).collect();
        assert_eq!(round1.len(), 2);
    }

    #[test]
    fn injections_reach_only_alive_processes() {
        let p1 = ProcessId::new(1);
        let mut adv = ScriptedAdversary {
            script: vec![
                (
                    0,
                    RoundDecision {
                        crashes: vec![CrashSpec::dropping(p1)],
                        restarts: vec![],
                        injections: vec![(ProcessId::new(0), 7u64)],
                    },
                ),
                (
                    1,
                    RoundDecision {
                        crashes: vec![],
                        restarts: vec![],
                        injections: vec![(p1, 9u64)],
                    },
                ),
            ],
        };
        let mut e = Engine::<Ring>::new(EngineConfig::new(4).seed(1));
        let mut log = EventLog::default();
        e.run_observed(2, &mut adv, &mut log);
        let injected: Vec<_> = e.outputs().iter().filter(|o| o.value.1 >= 1000).collect();
        assert_eq!(injected.len(), 1, "only the alive process saw its input");
        assert_eq!(injected[0].value, (ProcessId::new(0), 1007));
        // Of the two injections, the engine made only the one at p0.
        let made: Vec<_> = log.events.iter().filter(|e| e.starts_with("i ")).collect();
        assert_eq!(made, ["i r0 p0 7"]);
    }

    /// Remembers its seed, when it started and how many compute phases it
    /// ran.
    struct Life {
        seed: u64,
        started: Option<Round>,
        computed: u64,
    }

    impl Protocol for Life {
        type Msg = ();
        type Input = u64;
        type Output = ();
        fn new(_id: ProcessId, _n: usize, seed: u64) -> Self {
            Life {
                seed,
                started: None,
                computed: 0,
            }
        }
        fn on_start(&mut self, round: Round) {
            self.started = Some(round);
        }
        fn send(&mut self, _: &mut Context<'_, Self>) {}
        fn receive(&mut self, _: &mut Context<'_, Self>, _: Inbox<'_, ()>, _: Option<u64>) {
            self.computed += 1;
        }
    }

    /// Each crash with the retired incarnation's `(seed, started, computed)`.
    #[derive(Default)]
    struct Retirements(Vec<(Round, ProcessId, u64, Option<Round>, u64)>);

    impl Observer<Life> for Retirements {
        fn on_crash(&mut self, round: Round, p: ProcessId, retired: &Life) {
            self.0
                .push((round, p, retired.seed, retired.started, retired.computed));
        }
    }

    #[test]
    fn a_crash_retires_the_incarnation_and_a_restart_starts_the_next() {
        let p1 = ProcessId::new(1);
        let parallel = EngineBackend::Parallel { workers: 3 };
        for backend in [EngineBackend::Sequential, parallel] {
            let mut adv = ScriptedAdversary {
                script: vec![
                    (
                        3,
                        RoundDecision {
                            crashes: vec![CrashSpec::dropping(p1)],
                            ..RoundDecision::none()
                        },
                    ),
                    (
                        5,
                        RoundDecision {
                            restarts: vec![(p1, IncomingPolicy::DropAll)],
                            ..RoundDecision::none()
                        },
                    ),
                ],
            };
            let mut e = Engine::<Life>::new(EngineConfig::new(4).seed(1).backend(backend));
            let mut retired = Retirements::default();
            e.run_observed(4, &mut adv, &mut retired);
            // The crash lent the last state of generation 0, which started
            // in round 0 and computed in rounds 0, 1 and 2.
            let last = (Round(3), p1, fork_seed(1, p1, 0), Some(Round::ZERO), 3);
            assert_eq!(retired.0, [last], "{backend}");
            // The slot holds generation 1, built but not started.
            let next = e.protocol(p1);
            let waiting = (next.seed, next.started, next.computed);
            assert_eq!(waiting, (fork_seed(1, p1, 1), None, 0), "{backend}");

            // Restarted in round 5, it computes in rounds 5 and 6.
            e.run_observed(3, &mut adv, &mut retired);
            let now = e.protocol(p1);
            let started = (now.seed, now.started, now.computed);
            assert_eq!(
                started,
                (fork_seed(1, p1, 1), Some(Round(5)), 2),
                "{backend}"
            );
            assert_eq!(retired.0, [last], "{backend}");
        }
    }

    #[test]
    fn determinism_same_seed_same_execution() {
        let run = |seed| {
            let mut e = Engine::<Ring>::new(EngineConfig::new(8).seed(seed));
            e.run(5, &mut NullAdversary);
            (e.metrics().total(), e.outputs().len())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn backend_defaults_to_auto_and_displays() {
        assert_eq!(EngineBackend::default(), EngineBackend::Auto);
        assert_eq!(EngineConfig::new(4).backend, EngineBackend::Auto);
        assert_eq!(EngineBackend::Auto.to_string(), "auto");
        assert_eq!(EngineBackend::Sequential.to_string(), "seq");
        assert_eq!(EngineBackend::Parallel { workers: 8 }.to_string(), "par:8");
        assert_eq!(EngineBackend::Sequential.workers(), 1);
        assert_eq!(EngineBackend::Parallel { workers: 3 }.workers(), 3);
        assert_eq!(
            EngineBackend::Auto.workers(),
            EngineBackend::parallel_auto().workers()
        );
        // Only `Auto` gates by load; an explicit pin always fans out.
        assert_eq!(EngineBackend::Auto.workers_for(AUTO_MIN_MSGS - 1), 1);
        assert_eq!(
            EngineBackend::Auto.workers_for(AUTO_MIN_MSGS),
            EngineBackend::Auto.workers()
        );
        assert_eq!(EngineBackend::Parallel { workers: 2 }.workers_for(0), 2);
    }

    /// Process 0 sends `LOAD[r]` messages in round `r`, spread over every
    /// process; each process records the thread that ran its send and its
    /// receive, and outputs how much it received.
    struct Spy {
        threads: Vec<(Round, bool, std::thread::ThreadId)>,
    }

    const K: usize = AUTO_MIN_MSGS;
    const LOAD: [usize; 6] = [K - 1, K, 3, 2 * K, 0, K];

    impl Protocol for Spy {
        type Msg = u32;
        type Input = ();
        type Output = usize;
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Spy {
                threads: Vec::new(),
            }
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            let id = std::thread::current().id();
            self.threads.push((ctx.round(), true, id));
            if ctx.id().as_usize() == 0 {
                for i in 0..LOAD[ctx.round().as_u64() as usize] {
                    ctx.send(ProcessId::new(i % ctx.n()), i as u32, Tag("load"));
                }
            }
        }
        fn receive(&mut self, ctx: &mut Context<'_, Self>, inbox: Inbox<'_, u32>, _: Option<()>) {
            let id = std::thread::current().id();
            self.threads.push((ctx.round(), false, id));
            ctx.output(inbox.len());
        }
    }

    #[test]
    fn auto_fans_out_exactly_the_phases_at_or_above_the_gate() {
        let n = 8;
        let run = |backend| {
            let mut e = Engine::<Spy>::new(EngineConfig::new(n).seed(3).backend(backend));
            e.run(LOAD.len() as u64, &mut NullAdversary);
            e
        };
        let auto = run(EngineBackend::default());
        let seq = run(EngineBackend::Sequential);
        assert_eq!(auto.outputs(), seq.outputs());
        assert_eq!(
            auto.metrics().per_round_series(),
            seq.metrics().per_round_series()
        );
        assert_eq!(auto.metrics().deliveries(), seq.metrics().deliveries());

        let caller = std::thread::current().id();
        let multicore = EngineBackend::Auto.workers() > 1;
        let (first, last) = (
            auto.protocol(ProcessId::new(0)),
            auto.protocol(ProcessId::new(n - 1)),
        );
        for (r, load) in LOAD.iter().enumerate() {
            // The send phase is gated by the previous round's outbox, the
            // compute phase by this round's deliveries.
            let send_load = if r == 0 { 0 } else { LOAD[r - 1] };
            for (phase, (is_send, load)) in [(true, send_load), (false, *load)].iter().enumerate() {
                let (_, _, t0) = first.threads[2 * r + phase];
                let (round, sent, tn) = last.threads[2 * r + phase];
                assert_eq!((round, sent), (Round(r as u64), *is_send));
                assert_eq!(t0, caller, "chunk 0 runs on the calling thread");
                let fans_out = multicore && *load >= K;
                assert_eq!(
                    tn != caller,
                    fans_out,
                    "round {r}, send {is_send}, load {load}"
                );
            }
        }
        assert!(seq
            .protocol(ProcessId::new(n - 1))
            .threads
            .iter()
            .all(|t| t.2 == caller));
    }

    /// Every process sends its token to every other process in the send
    /// phase and to itself in the compute phase (a message of the next
    /// round), so the token's count tells how many payloads are alive.
    struct Tokens(Arc<()>);

    impl Protocol for Tokens {
        type Msg = Arc<()>;
        type Input = ();
        type Output = ();

        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Tokens(Arc::new(()))
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            let me = ctx.id();
            let others = ProcessId::all(ctx.n()).filter(|&p| p != me);
            ctx.send_each(others, self.0.clone(), Tag("token"));
        }
        fn receive(
            &mut self,
            ctx: &mut Context<'_, Self>,
            inbox: Inbox<'_, Self::Msg>,
            _: Option<()>,
        ) {
            for env in inbox {
                assert!(Arc::ptr_eq(env.payload, &self.0));
            }
            ctx.send(ctx.id(), self.0.clone(), Tag("next"));
        }
    }

    #[test]
    fn no_payload_outlives_its_rounds_compute_phase() {
        let n = 6;
        let token = Arc::new(());
        let parallel = EngineBackend::Parallel { workers: 3 };
        for backend in [EngineBackend::Sequential, parallel, EngineBackend::Auto] {
            let held = token.clone();
            let cfg = EngineConfig::new(n).seed(5).backend(backend);
            let mut e = Engine::with_factory(cfg, move |_, _, _| Tokens(held.clone()));
            for r in 0..4 {
                e.step(&mut NullAdversary);
                // The test, the factory and every process hold the token;
                // of the payloads only the compute-phase sends, queued for
                // the next round, are alive.
                assert_eq!(Arc::strong_count(&token), 2 + n + n, "round {r}");
                // The routing rows stay: the next send phase is sized by
                // this round's message count, self-sends of the previous
                // compute phase included.
                let msgs = n * (n - 1) + if r == 0 { 0 } else { n };
                assert_eq!(e.mem.outbox_len(), msgs, "{backend}, round {r}");
            }
            drop(e);
            assert_eq!(Arc::strong_count(&token), 1);
        }
    }

    /// Observer that fingerprints the full ordered event stream, for
    /// backend-equivalence assertions.
    #[derive(Default)]
    struct EventLog {
        events: Vec<String>,
    }
    impl Observer<Ring> for EventLog {
        fn on_deliver(&mut self, env: EnvelopeRef<'_, u64>) {
            self.events.push(format!(
                "d {} {} {} {}",
                env.src, env.dst, env.round, env.payload
            ));
        }
        fn on_inject(&mut self, round: Round, p: ProcessId, input: &u64) {
            self.events.push(format!("i {round} {p} {input}"));
        }
        fn on_output(&mut self, rec: &OutputRecord<(ProcessId, u64)>) {
            self.events
                .push(format!("o {} {} {:?}", rec.round, rec.process, rec.value));
        }
        fn on_crash(&mut self, round: Round, p: ProcessId, _retired: &Ring) {
            self.events.push(format!("c {round} {p}"));
        }
        fn on_restart(&mut self, round: Round, p: ProcessId) {
            self.events.push(format!("r {round} {p}"));
        }
        fn on_round_end(&mut self, round: Round) {
            self.events.push(format!("e {round}"));
        }
    }

    fn churn_script() -> ScriptedAdversary {
        let p1 = ProcessId::new(1);
        let p3 = ProcessId::new(3);
        ScriptedAdversary {
            script: vec![
                (
                    0,
                    RoundDecision {
                        crashes: vec![CrashSpec::dropping(p1)],
                        restarts: vec![],
                        injections: vec![(ProcessId::new(0), 7u64)],
                    },
                ),
                (
                    1,
                    RoundDecision {
                        crashes: vec![CrashSpec::delivering(p3)],
                        restarts: vec![],
                        injections: vec![(p1, 9u64)],
                    },
                ),
                (
                    2,
                    RoundDecision {
                        crashes: vec![],
                        restarts: vec![
                            (p1, IncomingPolicy::DeliverAll),
                            (p3, IncomingPolicy::DropAll),
                        ],
                        injections: vec![(ProcessId::new(2), 11u64)],
                    },
                ),
            ],
        }
    }

    #[test]
    fn parallel_backend_is_bit_identical_to_sequential() {
        // Same seed, same scripted churn: the full ordered event stream must
        // match the sequential backend exactly, for every worker count.
        let run = |backend: EngineBackend| {
            let mut e = Engine::<Ring>::new(EngineConfig::new(8).seed(42).backend(backend));
            let mut log = EventLog::default();
            e.run_observed(6, &mut churn_script(), &mut log);
            (
                log.events,
                e.metrics().total(),
                e.metrics().deliveries(),
                e.outputs().to_vec(),
            )
        };
        let seq = run(EngineBackend::Sequential);
        for workers in [1, 2, 3, 8, 16] {
            let par = run(EngineBackend::Parallel { workers });
            assert_eq!(seq, par, "workers={workers} diverged from sequential");
        }
    }

    #[test]
    fn parallel_handles_more_workers_than_processes() {
        let cfg = EngineConfig::new(2)
            .seed(1)
            .backend(EngineBackend::Parallel { workers: 16 });
        let mut e = Engine::<Ring>::new(cfg);
        e.run(3, &mut NullAdversary);
        assert_eq!(e.outputs().len(), 6); // 2 pings per round × 3 rounds
    }

    #[test]
    fn invalid_decisions_are_counted_and_change_nothing() {
        // The valid churn script, plus a crash of the already dead p1 and a
        // restart of the live p0 in round 1, and a second injection at p2
        // in round 2: each is skipped and counted, and the execution is the
        // valid one.
        let run = |mut adv: ScriptedAdversary| {
            let mut e = Engine::<Ring>::new(EngineConfig::new(8).seed(42));
            let mut log = EventLog::default();
            e.run_observed(6, &mut adv, &mut log);
            (
                log.events,
                e.outputs().to_vec(),
                e.metrics().rejected_decisions(),
            )
        };
        let mut bad = churn_script();
        let round1 = &mut bad.script[1].1;
        round1.crashes.push(CrashSpec::dropping(ProcessId::new(1)));
        round1
            .restarts
            .push((ProcessId::new(0), IncomingPolicy::DeliverAll));
        bad.script[2].1.injections.push((ProcessId::new(2), 99u64));

        let (events, outputs, rejected) = run(bad);
        let valid = run(churn_script());
        assert_eq!(valid.2, 0);
        assert_eq!(rejected, 3);
        assert_eq!((events, outputs), (valid.0, valid.1));
    }

    /// Protocol that outputs one random value, to check RNG reset semantics.
    struct RandOnce {
        emitted: bool,
    }
    impl Protocol for RandOnce {
        type Msg = ();
        type Input = ();
        type Output = u64;
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            RandOnce { emitted: false }
        }
        fn send(&mut self, _ctx: &mut Context<'_, Self>) {}
        fn receive(&mut self, ctx: &mut Context<'_, Self>, _i: Inbox<'_, ()>, _in: Option<()>) {
            if !self.emitted {
                self.emitted = true;
                let v = rand::Rng::gen::<u64>(ctx.rng());
                ctx.output(v);
            }
        }
    }

    struct CrashRestartOnce;
    impl Adversary<RandOnce> for CrashRestartOnce {
        fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<()> {
            match view.round.as_u64() {
                0 => RoundDecision {
                    crashes: vec![CrashSpec::dropping(ProcessId::new(0))],
                    restarts: vec![],
                    injections: vec![],
                },
                1 => RoundDecision {
                    crashes: vec![],
                    restarts: vec![(ProcessId::new(0), IncomingPolicy::DropAll)],
                    injections: vec![],
                },
                _ => RoundDecision::none(),
            }
        }
    }

    #[test]
    fn restart_gets_fresh_rng_stream() {
        let mut e = Engine::<RandOnce>::new(EngineConfig::new(1).seed(5));
        e.run(3, &mut CrashRestartOnce);
        // p0 crashed in round 0 before computing... no: compute happens after
        // crash, so crashed p0 never emitted in round 0. After restart it
        // emits once. Exactly one output.
        assert_eq!(e.outputs().len(), 1);
        let after_restart = e.outputs()[0].value;

        // A failure-free run emits the generation-0 value, which must differ
        // from the generation-1 value above.
        let mut f = Engine::<RandOnce>::new(EngineConfig::new(1).seed(5));
        f.run(1, &mut NullAdversary);
        assert_ne!(f.outputs()[0].value, after_restart);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::message::Tag;

    /// p0 sends to p1 and p2 every round; receivers report.
    struct Fan;
    impl Protocol for Fan {
        type Msg = ();
        type Input = ();
        type Output = ProcessId;
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Fan
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            if ctx.id().as_usize() == 0 {
                ctx.send(ProcessId::new(1), (), Tag("fan"));
                ctx.send(ProcessId::new(2), (), Tag("fan"));
            }
        }
        fn receive(&mut self, ctx: &mut Context<'_, Self>, inbox: Inbox<'_, ()>, _i: Option<()>) {
            for _ in inbox {
                ctx.output(ctx.id());
            }
        }
    }

    struct SubsetCrash;
    impl Adversary<Fan> for SubsetCrash {
        fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<()> {
            if view.round == Round(0) {
                RoundDecision {
                    crashes: vec![CrashSpec {
                        process: ProcessId::new(0),
                        sent: SentPolicy::DeliverOnlyTo(vec![ProcessId::new(2)]),
                    }],
                    restarts: vec![],
                    injections: vec![],
                }
            } else {
                RoundDecision::none()
            }
        }
    }

    /// Every process sends `(round, false)` to its successor in the send
    /// phase and queues `(round, true)` for it in the compute phase;
    /// receivers report what arrived, in inbox order.
    struct Carry;
    impl Protocol for Carry {
        type Msg = (u64, bool);
        type Input = ();
        type Output = (ProcessId, u64, bool);
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Carry
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.id().as_usize() + 1) % ctx.n());
            ctx.send(next, (ctx.round().as_u64(), false), Tag("send"));
        }
        fn receive(
            &mut self,
            ctx: &mut Context<'_, Self>,
            inbox: Inbox<'_, (u64, bool)>,
            _: Option<()>,
        ) {
            for env in inbox {
                ctx.output((env.src, env.payload.0, env.payload.1));
            }
            let next = ProcessId::new((ctx.id().as_usize() + 1) % ctx.n());
            ctx.send(next, (ctx.round().as_u64(), true), Tag("carry"));
        }
    }

    /// Crashes p1 in round 2 (its sent messages lost), restarts it in round 4.
    struct CrashThenRestart;
    impl Adversary<Carry> for CrashThenRestart {
        fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<()> {
            let mut d = RoundDecision::none();
            match view.round.as_u64() {
                2 => d.crashes.push(CrashSpec::dropping(ProcessId::new(1))),
                4 => d
                    .restarts
                    .push((ProcessId::new(1), IncomingPolicy::DeliverAll)),
                _ => {}
            }
            d
        }
    }

    #[test]
    fn compute_phase_sends_leave_next_round_ahead_of_the_send_phase() {
        let (p1, p2) = (ProcessId::new(1), ProcessId::new(2));
        for backend in [
            EngineBackend::Sequential,
            EngineBackend::Parallel { workers: 3 },
        ] {
            let mut e = Engine::<Carry>::new(EngineConfig::new(4).seed(1).backend(backend));
            e.run(6, &mut CrashThenRestart);
            // What p2 heard from p1, round by round.
            let heard = |round: u64| -> Vec<(u64, bool)> {
                e.outputs()
                    .iter()
                    .filter(|o| o.round == Round(round) && o.process == p2 && o.value.0 == p1)
                    .map(|o| (o.value.1, o.value.2))
                    .collect()
            };
            assert_eq!(heard(0), [(0, false)], "{backend}");
            // The compute-phase send of round 0 leads round 1's outbox.
            assert_eq!(heard(1), [(0, true), (1, false)], "{backend}");
            // p1 crashes in round 2 with DropAll: the carried message is lost
            // with the send-phase one, and both were metered as sent.
            assert_eq!(heard(2), [], "{backend}");
            assert_eq!(e.metrics().round(2).of(Tag("carry")), 4, "{backend}");
            // Restarted in round 4 after the send phase, p1 computes there;
            // in round 5 it sends that round's two messages and nothing older.
            assert_eq!(heard(3), [], "{backend}");
            assert_eq!(heard(4), [], "{backend}");
            assert_eq!(heard(5), [(4, true), (5, false)], "{backend}");
        }
    }

    #[test]
    fn deliver_only_to_filters_per_destination() {
        // The paper's partial-delivery semantics: the adversary picks WHICH
        // of a crashing process's messages survive, per destination.
        let mut e = Engine::<Fan>::new(EngineConfig::new(3).seed(1));
        e.step(&mut SubsetCrash);
        let receivers: Vec<ProcessId> = e.outputs().iter().map(|o| o.value).collect();
        assert_eq!(
            receivers,
            vec![ProcessId::new(2)],
            "only p2's copy survives"
        );
        // Both sends are still metered (complexity counts sends).
        assert_eq!(e.metrics().round(0).total(), 2);
    }

    /// Every process sends tags a, a, b, a; a message's size is its payload.
    struct MixedTags;
    impl Protocol for MixedTags {
        type Msg = u64;
        type Input = ();
        type Output = ();
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            MixedTags
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            for (size, tag) in [(1, "a"), (2, "a"), (10, "b"), (4, "a")] {
                ctx.send(ctx.id(), size, Tag(tag));
            }
        }
        fn receive(&mut self, _: &mut Context<'_, Self>, _: Inbox<'_, u64>, _: Option<()>) {}
        fn msg_size(msg: &u64) -> u64 {
            *msg
        }
    }

    #[test]
    fn metering_by_tag_run_keeps_counts_and_bytes() {
        let mut e = Engine::<MixedTags>::new(EngineConfig::new(3).seed(1));
        e.step(&mut NullAdversary);
        let counts = e.metrics().round(0);
        assert_eq!((counts.of(Tag("a")), counts.bytes_of(Tag("a"))), (9, 21));
        assert_eq!((counts.of(Tag("b")), counts.bytes_of(Tag("b"))), (3, 30));
    }

    struct SubsetRestart;
    impl Adversary<Fan> for SubsetRestart {
        fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<()> {
            match view.round.as_u64() {
                0 => RoundDecision {
                    crashes: vec![CrashSpec::dropping(ProcessId::new(1))],
                    restarts: vec![],
                    injections: vec![],
                },
                1 => RoundDecision {
                    crashes: vec![],
                    restarts: vec![(
                        ProcessId::new(1),
                        IncomingPolicy::DeliverOnlyFrom(vec![ProcessId::new(0)]),
                    )],
                    injections: vec![],
                },
                _ => RoundDecision::none(),
            }
        }
    }

    #[test]
    fn deliver_only_from_filters_restart_inbox() {
        let mut e = Engine::<Fan>::new(EngineConfig::new(3).seed(1));
        e.run(2, &mut SubsetRestart);
        // Round 1: p1 restarts with a from-p0 filter; p0's message arrives.
        let round1: Vec<_> = e
            .outputs()
            .iter()
            .filter(|o| o.round == Round(1) && o.value == ProcessId::new(1))
            .collect();
        assert_eq!(round1.len(), 1);
    }
}
