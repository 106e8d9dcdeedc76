//! The round-transport layer: one drive loop, pluggable delivery substrates.
//!
//! The lock-step engine and the networked runtime execute the *same*
//! superstep — send this round's messages, announce the round is over, block
//! until every peer's announcement has arrived, compute on the received
//! inbox — but they used to own two divergent copies of that loop. This
//! module extracts the loop behind [`RoundTransport`]:
//!
//! * [`MemTransport`] is the in-memory columnar-outbox substrate. The
//!   [`Engine`](crate::Engine) drives it through inherent zero-copy methods
//!   (append per-process send columns in pid order, route index lists); the
//!   trait implementation layers barrier bookkeeping on top so the same
//!   instance can also back an in-process cluster of [`NodeDriver`]s.
//! * `TcpTransport` (in the `congos-net` crate) ships the messages over real
//!   sockets; end-of-round markers are wire frames and the barrier is one
//!   `poll(2)` loop over the node's peer connections.
//!
//! [`NodeDriver`] owns ONE process — the same `Process` type (protocol
//! instance, forked RNG stream, send buffer, outputs) the engine holds `n`
//! of — and runs its superstep generically over any transport, reporting
//! to an [`Observer`] what the engine reports for that process.
//! Determinism survives the substrate because every input to
//! a node's state machine is transport-independent: the RNG stream is forked
//! from `(master_seed, id, generation)`, injections are scheduled by round,
//! and the inbox is sorted by source id before compute (within one source,
//! both substrates preserve send order — column order in memory, stream
//! FIFO order on a socket).

use std::collections::VecDeque;
use std::io;

use crate::clock::Round;
use crate::engine::{NullObserver, Observer, OutputRecord, Process, Protocol};
use crate::message::{Envelope, EnvelopeRef, Inbox, OutboxColumns, SendColumns};
use crate::process::ProcessId;
use crate::topology::{Topology, TopologySpec};

/// A delivery substrate for bulk-synchronous rounds.
///
/// The round contract, per node and per round `r`:
///
/// 1. [`send_outbox`](RoundTransport::send_outbox), at most once per round —
///    ship the node's round-`r` messages (the transport takes ownership;
///    self-sends are looped back by the transport, not the caller). A socket
///    transport may put the round's end-of-round announcement on the wire
///    together with these frames.
/// 2. [`end_of_round`](RoundTransport::end_of_round) — announce that the node
///    will send nothing more in round `r`, if `send_outbox` has not already
///    done so.
/// 3. [`recv_until_barrier`](RoundTransport::recv_until_barrier) — block until
///    every process's round-`r` announcement has been observed, then hand
///    back everything delivered to this node in round `r`.
///
/// Implementations decide what "delivered" means (the simulator's adversary
/// and topology filtering, a socket runtime's sender-side topology drops) but
/// must never reorder messages of one `(src, dst)` pair.
pub trait RoundTransport<M> {
    /// Ships node `src`'s round-`round` sends, draining `out`. Called at
    /// most once per round.
    ///
    /// # Errors
    ///
    /// Transport-level failure (e.g. a lost peer connection), or a second
    /// call in a round whose announcement has already gone out.
    fn send_outbox(
        &mut self,
        round: Round,
        src: ProcessId,
        out: &mut SendColumns<M>,
    ) -> io::Result<()>;

    /// Announces that `src` has sent everything it will send in `round`.
    ///
    /// # Errors
    ///
    /// Transport-level failure (e.g. a lost peer connection).
    fn end_of_round(&mut self, round: Round, src: ProcessId) -> io::Result<()>;

    /// Blocks until the round-`round` barrier is complete, then fills
    /// `inbox` (cleared first) with the messages delivered to `dst`.
    ///
    /// # Errors
    ///
    /// Transport-level failure: a lost peer, a barrier that can never
    /// complete, or (for in-memory transports) a phase-discipline violation.
    fn recv_until_barrier(
        &mut self,
        round: Round,
        dst: ProcessId,
        inbox: &mut Vec<Envelope<M>>,
    ) -> io::Result<()>;
}

/// The in-memory delivery substrate: one round's merged outbox in columnar
/// layout plus per-process index lists into it.
///
/// Two ways to drive it:
///
/// * **Engine path** (zero-copy): [`begin_round`](MemTransport::begin_round),
///   [`append_outbox`](MemTransport::append_outbox) per process in pid order,
///   [`route_with`](MemTransport::route_with) with the adversary's filters,
///   then read inboxes through [`columns`](MemTransport::columns) +
///   [`inbox_lists`](MemTransport::inbox_lists) without materializing
///   envelopes. This is exactly the engine's pre-existing hot path, moved
///   behind one type — bit-identical by construction.
/// * **Trait path**: a set of [`NodeDriver`]s call the [`RoundTransport`]
///   methods; the barrier counts end-of-round announcements, routing applies
///   the topology (failure-free), and received envelopes are materialized by
///   cloning payloads out of the columns.
#[derive(Debug)]
pub struct MemTransport<M> {
    n: usize,
    topology: Topology,
    /// This round's merged outbox (reused across rounds; cleared, not
    /// reallocated).
    outbox: OutboxColumns<M>,
    /// Per-process inboxes as index lists into `outbox` (reused across
    /// rounds) — delivery routes indices instead of moving envelopes.
    inbox_idx: Vec<Vec<u32>>,
    /// The round `begin_round` opened (phase-discipline checking).
    round: Round,
    /// End-of-round announcements received this round (trait path).
    eor: usize,
    /// Whether this round's routing has run.
    routed: bool,
}

impl<M> MemTransport<M> {
    /// A transport for `n` processes over the topology derived from
    /// `(spec, n, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the spec cannot be instantiated over `n` processes.
    pub fn new(spec: TopologySpec, n: usize, seed: u64) -> Self {
        MemTransport {
            n,
            topology: Topology::build(spec, n, seed),
            outbox: OutboxColumns::new(),
            inbox_idx: (0..n).map(|_| Vec::new()).collect(),
            round: Round::ZERO,
            eor: 0,
            routed: false,
        }
    }

    /// The topology messages are delivered over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Opens round `round`: drops last round's messages (keeping column
    /// capacities) and resets the barrier.
    pub fn begin_round(&mut self, round: Round) {
        self.outbox.clear();
        for idx in &mut self.inbox_idx {
            idx.clear();
        }
        self.round = round;
        self.eor = 0;
        self.routed = false;
    }

    /// Appends every message of `buf` (all sent by `src`) onto the round
    /// outbox, leaving `buf` empty. Callers append in pid order; the outbox
    /// is then src-major, which is what makes index-list inboxes arrive
    /// sorted by source.
    pub fn append_outbox(&mut self, src: ProcessId, buf: &mut SendColumns<M>) {
        self.outbox.append_from(src, buf);
    }

    /// Number of messages queued this round.
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// The round's merged outbox columns (for zero-copy columnar inboxes).
    pub fn columns(&self) -> &OutboxColumns<M> {
        &self.outbox
    }

    /// The routed per-process index lists into [`columns`](Self::columns).
    pub fn inbox_lists(&self) -> &[Vec<u32>] {
        &self.inbox_idx
    }

    /// Routes this round's outbox into the per-process index lists, in
    /// outbox order, with the engine's delivery-phase filter chain:
    ///
    /// 1. `sender_gate(src, dst)` — the crash sent-policy (pre-topology);
    /// 2. the topology (absent link ⇒ `on_topology_drop`, skipped entirely
    ///    on a complete topology);
    /// 3. `receiver_gate(src, dst)` — receiver liveness and the restart
    ///    incoming-policy;
    /// 4. `on_deliver` observes each surviving envelope in delivery order.
    ///
    /// The filter order is load-bearing: it is the engine's historical
    /// order, pinned by the golden trace digests.
    pub fn route_with(
        &mut self,
        round: Round,
        mut sender_gate: impl FnMut(ProcessId, ProcessId) -> bool,
        mut receiver_gate: impl FnMut(ProcessId, ProcessId) -> bool,
        mut on_deliver: impl FnMut(EnvelopeRef<'_, M>),
        mut on_topology_drop: impl FnMut(),
    ) {
        for idx in &mut self.inbox_idx {
            idx.clear();
        }
        let filter_topology = !self.topology.is_complete();
        for i in 0..self.outbox.len() {
            let (src, dst) = self.outbox.ends(i);
            if !sender_gate(src, dst) {
                continue;
            }
            if filter_topology && !self.topology.connected(round, src, dst) {
                on_topology_drop();
                continue; // no link between src and dst this round
            }
            if !receiver_gate(src, dst) {
                continue;
            }
            on_deliver(self.outbox.get(i, round));
            self.inbox_idx[dst.as_usize()].push(i as u32);
        }
        self.routed = true;
    }
}

impl<M: Clone> RoundTransport<M> for MemTransport<M> {
    fn send_outbox(
        &mut self,
        round: Round,
        src: ProcessId,
        out: &mut SendColumns<M>,
    ) -> io::Result<()> {
        if round != self.round {
            return Err(phase_error(format!(
                "send for {round} but the open round is {} (call begin_round)",
                self.round
            )));
        }
        self.append_outbox(src, out);
        Ok(())
    }

    fn end_of_round(&mut self, round: Round, _src: ProcessId) -> io::Result<()> {
        if round != self.round {
            return Err(phase_error(format!(
                "end-of-round for {round} but the open round is {}",
                self.round
            )));
        }
        self.eor += 1;
        Ok(())
    }

    fn recv_until_barrier(
        &mut self,
        round: Round,
        dst: ProcessId,
        inbox: &mut Vec<Envelope<M>>,
    ) -> io::Result<()> {
        if round != self.round {
            return Err(phase_error(format!(
                "receive for {round} but the open round is {}",
                self.round
            )));
        }
        if self.eor < self.n {
            // An in-memory "block" would deadlock: the caller is the only
            // thread, so the missing announcements can never arrive.
            return Err(phase_error(format!(
                "{round} barrier incomplete: {}/{} end-of-round announcements \
                 (drive every node's send phase before receiving)",
                self.eor, self.n
            )));
        }
        if !self.routed {
            // Failure-free routing: topology only, no adversary gates.
            self.route_with(round, |_, _| true, |_, _| true, |_| (), || ());
        }
        inbox.clear();
        for &i in &self.inbox_idx[dst.as_usize()] {
            inbox.push(self.outbox.get(i as usize, round).to_envelope());
        }
        Ok(())
    }
}

fn phase_error(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, msg)
}

/// Splits a cluster's `(round, process, input)` schedule into one
/// `(round, input)` list per process of `0..n`, keeping the given order.
///
/// # Errors
///
/// `InvalidInput`, naming the entry, if its process is outside `0..n`.
pub fn split_schedule<I>(
    n: usize,
    injections: Vec<(u64, ProcessId, I)>,
) -> io::Result<Vec<Vec<(u64, I)>>> {
    let mut per_node: Vec<Vec<(u64, I)>> = (0..n).map(|_| Vec::new()).collect();
    for (round, pid, input) in injections {
        let Some(node) = per_node.get_mut(pid.as_usize()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("injection at {pid} in round {round} is outside the {n}-process cluster"),
            ));
        };
        node.push((round, input));
    }
    Ok(per_node)
}

/// One injection schedule as `(round, input)` pairs, checked against the
/// model's rule (at most one input per round) and the run's round range,
/// then walked in round order.
struct Schedule<I>(VecDeque<(u64, I)>);

impl<I> Schedule<I> {
    /// # Errors
    ///
    /// `InvalidInput`, naming the entry, if two injections of `node` share a
    /// round or one falls outside `rounds`: either would otherwise be
    /// silently never made.
    fn new(
        node: ProcessId,
        rounds: std::ops::Range<u64>,
        mut injections: Vec<(u64, I)>,
    ) -> io::Result<Self> {
        injections.sort_by_key(|(r, _)| *r);
        let invalid = |msg| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        for (i, (r, _)) in injections.iter().enumerate() {
            if !rounds.contains(r) {
                return invalid(format!(
                    "injection at {node} in round {r} is outside the run's rounds {rounds:?}"
                ));
            }
            if i > 0 && injections[i - 1].0 == *r {
                return invalid(format!(
                    "two injections at {node} in round {r} (at most one per process per round)"
                ));
            }
        }
        Ok(Schedule(injections.into()))
    }

    /// The input due in `round`, if any.
    fn take(&mut self, round: u64) -> Option<I> {
        match self.0.front() {
            Some((due, _)) if *due == round => self.0.pop_front().map(|(_, input)| input),
            _ => None,
        }
    }
}

/// One process of a transport-backed deployment: a `Process` — the type the
/// engine holds `n` of — plus the per-node superstep loop over a
/// [`RoundTransport`].
pub struct NodeDriver<P: Protocol> {
    process: Process<P>,
    round: Round,
    /// Receive buffer (reused across rounds).
    inbox: Vec<Envelope<P::Msg>>,
}

impl<P: Protocol> NodeDriver<P> {
    /// A driver for process `id` of `n`, with the protocol default-built
    /// from the same forked seed the engine would use — a networked node and
    /// a simulated process with equal `(master_seed, id)` are bit-identical.
    pub fn new(id: ProcessId, n: usize, master_seed: u64) -> Self {
        Self::with_factory(id, n, master_seed, P::new)
    }

    /// A driver whose protocol instance is built by `factory` (for
    /// configured deployments). The factory receives the same forked
    /// per-process seed as [`new`](Self::new).
    pub fn with_factory(
        id: ProcessId,
        n: usize,
        master_seed: u64,
        factory: impl FnOnce(ProcessId, usize, u64) -> P,
    ) -> Self {
        NodeDriver {
            process: Process::spawn(factory, master_seed, id, n, 0, Round::ZERO),
            round: Round::ZERO,
            inbox: Vec::new(),
        }
    }

    /// This driver's process id.
    pub fn id(&self) -> ProcessId {
        self.process.id
    }

    /// The round about to execute.
    pub fn round(&self) -> Round {
        self.round
    }

    /// Outputs produced so far.
    pub fn outputs(&self) -> &[OutputRecord<P::Output>] {
        &self.process.outputs
    }

    /// Consumes the driver, returning the full output log.
    pub fn into_outputs(self) -> Vec<OutputRecord<P::Output>> {
        self.process.outputs
    }

    /// Read access to the protocol state (white-box test assertions).
    pub fn protocol(&self) -> &P {
        &self.process.proto
    }

    /// Runs the current round's send phase: the protocol queues messages,
    /// which are shipped through the transport, followed by the end-of-round
    /// announcement.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send_phase<T: RoundTransport<P::Msg>>(&mut self, transport: &mut T) -> io::Result<()> {
        let (round, id) = (self.round, self.process.id);
        self.process.send(round);
        transport.send_outbox(round, id, &mut self.process.out)?;
        transport.end_of_round(round, id)
    }

    /// [`compute_phase_observed`](Self::compute_phase_observed) with no
    /// observer.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn compute_phase<T: RoundTransport<P::Msg>>(
        &mut self,
        transport: &mut T,
        input: Option<P::Input>,
    ) -> io::Result<()> {
        self.compute_phase_observed(transport, input, &mut NullObserver)
    }

    /// Runs the current round's barrier + compute phase: blocks on the
    /// transport until every peer's round is over, sorts the inbox by source
    /// (the engine's pid-ordered delivery order), feeds it to the protocol
    /// together with any injected `input`, and advances the round.
    ///
    /// `obs` sees the events the engine reports for this process, in the
    /// engine's order: each delivery (self-sends included), the injection,
    /// the round's outputs, then the end of the round.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn compute_phase_observed<T: RoundTransport<P::Msg>, O: Observer<P>>(
        &mut self,
        transport: &mut T,
        input: Option<P::Input>,
        obs: &mut O,
    ) -> io::Result<()> {
        let (round, id) = (self.round, self.process.id);
        transport.recv_until_barrier(round, id, &mut self.inbox)?;
        // Stable by source: equals the engine's src-major outbox order, since
        // both substrates preserve per-source send order.
        self.inbox.sort_by_key(|e| e.src);
        for env in Inbox::from_slice(&self.inbox) {
            obs.on_deliver(env);
        }
        if let Some(input) = &input {
            obs.on_inject(round, id, input);
        }
        self.process
            .receive(round, Inbox::from_slice(&self.inbox), input);
        let outputs = &self.process.outputs;
        for rec in &outputs[outputs.partition_point(|o| o.round < round)..] {
            obs.on_output(rec);
        }
        obs.on_round_end(round);
        self.round = round.next();
        Ok(())
    }

    /// Runs `rounds` full rounds over a transport this node owns (each node
    /// of a socket cluster has its own), injecting `injections` as
    /// `(round, input)` pairs and reporting to `obs` as
    /// [`compute_phase_observed`](Self::compute_phase_observed) does.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before any round runs, if two injections share a
    /// round (the model allows one per process per round) or one falls
    /// outside the rounds this call executes; otherwise propagates transport
    /// failures.
    pub fn run_rounds<T: RoundTransport<P::Msg>, O: Observer<P>>(
        &mut self,
        transport: &mut T,
        rounds: u64,
        injections: Vec<(u64, P::Input)>,
        obs: &mut O,
    ) -> io::Result<()> {
        let start = self.round.as_u64();
        let mut schedule = Schedule::new(self.process.id, start..start + rounds, injections)?;
        for r in start..start + rounds {
            self.send_phase(transport)?;
            self.compute_phase_observed(transport, schedule.take(r), obs)?;
        }
        Ok(())
    }
}

/// Runs an in-process, failure-free cluster of [`NodeDriver`]s over one
/// shared [`MemTransport`], phase-interleaved like the engine (all sends,
/// then all computes). Returns every output, ordered by `(round, process)`.
///
/// This is the reference composition of driver + transport: the
/// differential suite pins it against both the engine and the socket
/// runtime.
///
/// # Errors
///
/// `InvalidInput`, before any round runs, if an injection's process is
/// outside `0..n`, two injections share a `(process, round)` or one falls
/// outside `0..rounds`; otherwise propagates transport failures (none occur
/// under correct interleaving).
///
/// # Panics
///
/// Panics if the topology cannot be instantiated over `n` processes.
pub fn run_local_cluster<P>(
    n: usize,
    seed: u64,
    topology: TopologySpec,
    rounds: u64,
    injections: Vec<(u64, ProcessId, P::Input)>,
) -> io::Result<Vec<OutputRecord<P::Output>>>
where
    P: Protocol,
    P::Msg: Clone,
{
    let mut mem = MemTransport::<P::Msg>::new(topology, n, seed);
    let mut drivers: Vec<NodeDriver<P>> = (0..n)
        .map(|i| NodeDriver::new(ProcessId::new(i), n, seed))
        .collect();
    let mut schedules = ProcessId::all(n)
        .zip(split_schedule(n, injections)?)
        .map(|(id, inj)| Schedule::new(id, 0..rounds, inj))
        .collect::<io::Result<Vec<_>>>()?;

    for r in 0..rounds {
        mem.begin_round(Round(r));
        for d in drivers.iter_mut() {
            d.send_phase(&mut mem)?;
        }
        for (d, schedule) in drivers.iter_mut().zip(&mut schedules) {
            d.compute_phase(&mut mem, schedule.take(r))?;
        }
    }

    let mut outs: Vec<OutputRecord<P::Output>> = drivers
        .into_iter()
        .flat_map(NodeDriver::into_outputs)
        .collect();
    outs.sort_by_key(|o| (o.round, o.process));
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Context, Engine, EngineConfig, NullAdversary};
    use crate::message::Tag;
    use rand::Rng;

    /// Every process sends a seeded random token to its successor and to
    /// itself each round; receivers report `(src, token)` and queue, from the
    /// compute phase, a message that leaves next round. Exercises RNG
    /// forking, self-send loopback, multi-source inbox ordering and the
    /// send buffer carried across the round boundary.
    struct Echo;

    impl Protocol for Echo {
        type Msg = u64;
        type Input = u64;
        type Output = (ProcessId, u64);

        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Echo
        }
        fn send(&mut self, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.id().as_usize() + 1) % ctx.n());
            let token = ctx.rng().gen::<u64>();
            ctx.send(next, token, Tag("echo"));
            ctx.send(ctx.id(), token ^ 1, Tag("self"));
        }
        fn receive(
            &mut self,
            ctx: &mut Context<'_, Self>,
            inbox: Inbox<'_, u64>,
            input: Option<u64>,
        ) {
            for env in inbox {
                ctx.output((env.src, *env.payload));
            }
            if let Some(v) = input {
                ctx.output((ctx.id(), v + 1_000_000));
            }
            // Even, so that an odd payload still identifies a self-send.
            let next = ProcessId::new((ctx.id().as_usize() + 1) % ctx.n());
            ctx.send(next, 2 * ctx.round().as_u64(), Tag("carry"));
        }
    }

    fn engine_outputs(
        n: usize,
        seed: u64,
        topology: TopologySpec,
        rounds: u64,
        injections: &[(u64, ProcessId, u64)],
        obs: &mut impl Observer<Echo>,
    ) -> Vec<OutputRecord<(ProcessId, u64)>> {
        use crate::engine::{Adversary, RoundDecision, RoundView};
        struct Inject {
            schedule: Vec<(u64, ProcessId, u64)>,
        }
        impl Adversary<Echo> for Inject {
            fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<u64> {
                let r = view.round.as_u64();
                let mut d = RoundDecision::none();
                self.schedule.retain(|(due, p, v)| {
                    if *due == r {
                        d.injections.push((*p, *v));
                        false
                    } else {
                        true
                    }
                });
                d
            }
        }
        let mut e = Engine::<Echo>::new(EngineConfig::new(n).seed(seed).topology(topology));
        e.run_observed(
            rounds,
            &mut Inject {
                schedule: injections.to_vec(),
            },
            obs,
        );
        let mut outs = e.into_outputs();
        outs.sort_by_key(|o| (o.round, o.process));
        outs
    }

    fn injections() -> Vec<(u64, ProcessId, u64)> {
        vec![
            (0, ProcessId::new(0), 7u64),
            (2, ProcessId::new(3), 9u64),
            (5, ProcessId::new(1), 11u64),
        ]
    }

    #[test]
    fn local_cluster_matches_engine_exactly() {
        let injections = injections();
        for (seed, topology) in [
            (1u64, TopologySpec::Complete),
            (2, TopologySpec::Complete),
            (3, TopologySpec::Expander { degree: 4 }),
        ] {
            let sim = engine_outputs(6, seed, topology, 8, &injections, &mut NullObserver);
            let local = run_local_cluster::<Echo>(6, seed, topology, 8, injections.clone())
                .expect("local cluster");
            assert_eq!(sim, local, "seed {seed} topology {topology} diverged");
            assert!(!sim.is_empty());
        }
    }

    /// Every event in order, each with the process it concerns (`None` for
    /// a round end, which concerns every process).
    #[derive(Default)]
    struct EventLog(Vec<(Option<ProcessId>, String)>);

    impl Observer<Echo> for EventLog {
        fn on_deliver(&mut self, env: EnvelopeRef<'_, u64>) {
            let (src, dst, round, tag) = (env.src, env.dst, env.round, env.tag.name());
            let event = format!("d {src} {dst} {round} {tag} {}", env.payload);
            self.0.push((Some(dst), event));
        }
        fn on_inject(&mut self, round: Round, p: ProcessId, input: &u64) {
            self.0.push((Some(p), format!("i {round} {p} {input}")));
        }
        fn on_output(&mut self, rec: &OutputRecord<(ProcessId, u64)>) {
            let event = format!("o {} {} {:?}", rec.round, rec.process, rec.value);
            self.0.push((Some(rec.process), event));
        }
        fn on_round_end(&mut self, round: Round) {
            self.0.push((None, format!("e {round}")));
        }
    }

    impl EventLog {
        /// The events that concern `p`, in order.
        fn of(&self, p: ProcessId) -> Vec<&str> {
            self.0
                .iter()
                .filter(|(q, _)| q.is_none_or(|q| q == p))
                .map(|(_, event)| event.as_str())
                .collect()
        }
    }

    #[test]
    fn node_driver_reports_the_engine_events_of_its_process() {
        let (n, rounds) = (6, 8);
        for (seed, topology) in [
            (1u64, TopologySpec::Complete),
            (3, TopologySpec::Expander { degree: 4 }),
        ] {
            let mut engine = EventLog::default();
            engine_outputs(n, seed, topology, rounds, &injections(), &mut engine);

            let mut mem = MemTransport::<u64>::new(topology, n, seed);
            let mut drivers: Vec<NodeDriver<Echo>> = (0..n)
                .map(|i| NodeDriver::new(ProcessId::new(i), n, seed))
                .collect();
            let mut logs: Vec<EventLog> = (0..n).map(|_| EventLog::default()).collect();
            let mut schedules: Vec<_> = ProcessId::all(n)
                .zip(split_schedule(n, injections()).expect("in range"))
                .map(|(id, inj)| Schedule::new(id, 0..rounds, inj).expect("valid"))
                .collect();
            for r in 0..rounds {
                mem.begin_round(Round(r));
                for d in drivers.iter_mut() {
                    d.send_phase(&mut mem).expect("send");
                }
                for ((d, log), schedule) in drivers.iter_mut().zip(&mut logs).zip(&mut schedules) {
                    d.compute_phase_observed(&mut mem, schedule.take(r), log)
                        .expect("compute");
                }
            }

            for (p, log) in ProcessId::all(n).zip(&logs) {
                let node: Vec<&str> = log.0.iter().map(|(_, event)| event.as_str()).collect();
                assert_eq!(node, engine.of(p), "{p}, seed {seed}, {topology}");
            }
            let kinds: Vec<char> = engine
                .0
                .iter()
                .filter_map(|(_, e)| e.chars().next())
                .collect();
            for kind in ['d', 'i', 'o', 'e'] {
                assert!(kinds.contains(&kind), "no '{kind}' event at {topology}");
            }
        }
    }

    #[test]
    fn invalid_schedules_are_rejected_before_round_zero() {
        let p0 = ProcessId::new(0);
        let mut mem = MemTransport::<u64>::new(TopologySpec::Complete, 1, 0);
        mem.begin_round(Round(0));
        for (schedule, needle) in [
            (
                vec![(1, 7u64), (0, 8), (1, 9)],
                "two injections at p0 in round 1",
            ),
            (vec![(0, 7), (3, 8)], "round 3 is outside"),
        ] {
            let mut d = NodeDriver::<Echo>::new(p0, 1, 0);
            let err = d
                .run_rounds(&mut mem, 3, schedule.clone(), &mut NullObserver)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(needle), "{err}");
            assert_eq!(d.round(), Round(0), "no round ran");

            let cluster = schedule.into_iter().map(|(r, v)| (r, p0, v)).collect();
            let err =
                run_local_cluster::<Echo>(2, 0, TopologySpec::Complete, 3, cluster).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(needle), "{err}");
        }
        let outside = vec![(0, ProcessId::new(2), 7u64)];
        let err = run_local_cluster::<Echo>(2, 0, TopologySpec::Complete, 3, outside).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("outside the 2-process cluster"),
            "{err}"
        );
        // The same round at two different processes is a valid schedule.
        let ok = vec![(1, p0, 7u64), (1, ProcessId::new(1), 8)];
        run_local_cluster::<Echo>(2, 0, TopologySpec::Complete, 3, ok).expect("valid");
    }

    #[test]
    fn mem_transport_counts_topology_drops() {
        // Every Echo process sends to its successor on the ring; a random
        // 2-regular graph on 8 nodes lacks some of those links.
        // Routing before the compute phase counts the drops through the
        // callback; the compute phase then reads the routed inboxes.
        let drops = |spec| {
            let n = 8;
            let mut mem = MemTransport::<u64>::new(spec, n, 5);
            let mut drivers: Vec<NodeDriver<Echo>> = (0..n)
                .map(|i| NodeDriver::new(ProcessId::new(i), n, 5))
                .collect();
            let mut drops = 0u64;
            for r in 0..4 {
                mem.begin_round(Round(r));
                for d in drivers.iter_mut() {
                    d.send_phase(&mut mem).expect("send");
                }
                let pass = |_, _| true;
                mem.route_with(Round(r), pass, pass, |_| (), || drops += 1);
                for d in drivers.iter_mut() {
                    d.compute_phase(&mut mem, None).expect("compute");
                }
            }
            drops
        };
        assert!(drops(TopologySpec::Expander { degree: 2 }) > 0);
        assert_eq!(drops(TopologySpec::Complete), 0);
    }

    #[test]
    fn premature_receive_is_a_clean_error() {
        let mut mem = MemTransport::<u64>::new(TopologySpec::Complete, 2, 0);
        mem.begin_round(Round(0));
        let mut d = NodeDriver::<Echo>::new(ProcessId::new(0), 2, 0);
        d.send_phase(&mut mem).expect("send");
        // Node 1 has not sent: the barrier cannot complete on one thread.
        let err = d.compute_phase(&mut mem, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(err.to_string().contains("barrier incomplete"), "{err}");
    }

    #[test]
    fn wrong_round_is_a_clean_error() {
        let mut mem = MemTransport::<u64>::new(TopologySpec::Complete, 1, 0);
        mem.begin_round(Round(3));
        let mut out = SendColumns::default();
        let err = mem
            .send_outbox(Round(0), ProcessId::new(0), &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("open round"), "{err}");
    }

    #[test]
    fn driver_restart_free_run_matches_engine_under_null_adversary() {
        // Sanity on the plain engine entry point too (no injections).
        let mut e = Engine::<Echo>::new(EngineConfig::new(4).seed(8));
        e.run(5, &mut NullAdversary);
        let mut sim = e.into_outputs();
        sim.sort_by_key(|o| (o.round, o.process));
        let local = run_local_cluster::<Echo>(4, 8, TopologySpec::Complete, 5, vec![])
            .expect("local cluster");
        assert_eq!(sim, local);
    }
}
