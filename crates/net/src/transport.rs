//! `TcpTransport` — the socket-backed [`RoundTransport`].
//!
//! One instance backs ONE node of a cluster. Topology of the plumbing:
//!
//! * **Outbound**: one TCP connection per peer, dialed with capped
//!   exponential backoff while the peers come up. Each connection is owned
//!   by a dedicated writer thread fed through a bounded channel of encoded
//!   frames — a stalled peer exerts backpressure instead of growing an
//!   unbounded queue.
//! * **Inbound**: one accepted TCP connection per peer, each owned by a
//!   reader thread that decodes frames (with the codec's frame-size caps)
//!   and pushes events into one bounded channel the round loop drains.
//!   A read error or EOF becomes a [`PeerLost`](Event::PeerLost) event, so
//!   a dead peer surfaces as a clean `io::Error` at the next barrier
//!   instead of a hang.
//! * **Self-sends** loop back in memory and never touch a socket.
//! * **Sender-side topology filtering**: frames whose `(src, dst)` link is
//!   absent this round are dropped before the wire — exactly the envelopes
//!   the simulator's delivery phase would drop, which keeps delivery sets
//!   identical and saves the hop.
//!
//! The barrier ([`recv_until_barrier`](RoundTransport::recv_until_barrier))
//! counts `EndOfRound` markers. Peers may run one superstep ahead (they can
//! finish round `r` and send round `r + 1` traffic before this node passes
//! its own round-`r` barrier), so future-round frames are parked in a
//! carried queue scanned once per round. Past-round frames are a protocol
//! violation (per-peer streams are FIFO and the barrier was passed) and
//! error out as `InvalidData`.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congos::{tag_by_name, CongosMsg};
use congos_sim::message::SendColumns;
use congos_sim::topology::{Topology, TopologySpec};
use congos_sim::transport::RoundTransport;
use congos_sim::{Envelope, ProcessId, Round, Tag};

use crate::codec::{decode_frame, encode_frame, WireFrame};

/// How long to keep retrying an outbound dial while peers come up.
pub const CONNECT_DEADLINE: Duration = Duration::from_secs(20);
/// Backoff cap between dial retries.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(100);
/// Default cap on waiting for a round barrier before declaring the cluster
/// wedged.
pub const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);
/// Grace period for draining already-queued frames once a peer is known
/// lost — the missing end-of-round markers may still be in the channel.
const PEER_LOSS_GRACE: Duration = Duration::from_millis(500);
/// Bound of the inbound event channel (frames from all peers).
const EVENT_CHANNEL_BOUND: usize = 4096;
/// Bound of each per-peer outbound frame channel.
const WRITER_CHANNEL_BOUND: usize = 256;

enum Event {
    Frame(WireFrame),
    /// A peer's connection died (EOF or read error). Carries a diagnostic.
    PeerLost(String),
}

enum WriterCmd {
    Bytes(Vec<u8>),
    Flush,
}

/// The socket-backed delivery substrate for one node of a localhost (or
/// LAN) cluster. See the module docs for the wiring.
#[derive(Debug)]
pub struct TcpTransport {
    me: ProcessId,
    n: usize,
    topology: Topology,
    barrier_timeout: Duration,
    /// `None` only mid-`Drop` (taking it unblocks readers stuck on a full
    /// channel).
    event_rx: Option<Receiver<Event>>,
    writers: Vec<Option<SyncSender<WriterCmd>>>,
    writer_handles: Vec<JoinHandle<()>>,
    reader_handles: Vec<JoinHandle<()>>,
    /// Clones of the accepted streams, kept to shut readers down on `Drop`.
    reader_streams: Vec<TcpStream>,
    /// Loopback buffer for self-sends (drained at the next receive).
    self_inbox: Vec<Envelope<CongosMsg>>,
    /// Frames from future rounds, parked until their round starts.
    carried: VecDeque<WireFrame>,
    /// Diagnostics of peers lost so far.
    lost: Vec<String>,
    messages: u64,
    topology_drops: u64,
}

fn connect_with_backoff(addr: (&str, u16), deadline: Duration) -> io::Result<TcpStream> {
    let start = Instant::now();
    let mut delay = Duration::from_millis(1);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!(
                            "could not connect to peer at {}:{} within {:?}: {e}",
                            addr.0, addr.1, deadline
                        ),
                    ));
                }
                std::thread::sleep(delay);
                delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
            }
        }
    }
}

impl TcpTransport {
    /// Connects node `me` of an `n`-node cluster on `base_port..base_port+n`
    /// (node `i` listens on `base_port + i`), binding its own listener.
    ///
    /// Blocks until all `n − 1` peer connections exist in both directions,
    /// retrying dials with capped exponential backoff for up to
    /// [`CONNECT_DEADLINE`].
    ///
    /// # Errors
    ///
    /// Bind failures, dial failures after the retry deadline, and accept
    /// timeouts (a peer that never dialed in).
    ///
    /// # Panics
    ///
    /// Panics if the topology spec cannot be instantiated over `n` nodes.
    pub fn connect(
        me: ProcessId,
        n: usize,
        base_port: u16,
        topology: TopologySpec,
        seed: u64,
    ) -> io::Result<Self> {
        Self::connect_deadline(me, n, base_port, topology, seed, CONNECT_DEADLINE)
    }

    /// [`connect`](Self::connect) with an explicit handshake deadline
    /// (applies to both the dial retries and the accept wait).
    ///
    /// # Errors
    ///
    /// Same as [`connect`](Self::connect).
    ///
    /// # Panics
    ///
    /// Panics if the topology spec cannot be instantiated over `n` nodes.
    pub fn connect_deadline(
        me: ProcessId,
        n: usize,
        base_port: u16,
        topology: TopologySpec,
        seed: u64,
        deadline: Duration,
    ) -> io::Result<Self> {
        let port = base_port + me.as_usize() as u16;
        let listener = TcpListener::bind(("127.0.0.1", port)).map_err(|e| {
            io::Error::new(e.kind(), format!("node {me}: bind 127.0.0.1:{port}: {e}"))
        })?;
        Self::build(me, n, base_port, listener, topology, seed, deadline)
    }

    /// Like [`connect`](Self::connect) with a pre-bound listener — lets a
    /// cluster harness bind every port before any node dials, removing the
    /// bind/dial race entirely.
    ///
    /// # Errors
    ///
    /// Dial failures after the retry deadline and accept timeouts.
    ///
    /// # Panics
    ///
    /// Panics if the topology spec cannot be instantiated over `n` nodes.
    pub fn with_listener(
        me: ProcessId,
        n: usize,
        base_port: u16,
        listener: TcpListener,
        topology: TopologySpec,
        seed: u64,
    ) -> io::Result<Self> {
        Self::build(me, n, base_port, listener, topology, seed, CONNECT_DEADLINE)
    }

    fn build(
        me: ProcessId,
        n: usize,
        base_port: u16,
        listener: TcpListener,
        topology: TopologySpec,
        seed: u64,
        deadline: Duration,
    ) -> io::Result<Self> {
        let (event_tx, event_rx) = sync_channel::<Event>(EVENT_CHANNEL_BOUND);
        let mut transport = TcpTransport {
            me,
            n,
            topology: Topology::build(topology, n, seed),
            barrier_timeout: BARRIER_TIMEOUT,
            event_rx: Some(event_rx),
            writers: (0..n).map(|_| None).collect(),
            writer_handles: Vec::new(),
            reader_handles: Vec::new(),
            reader_streams: Vec::new(),
            self_inbox: Vec::new(),
            carried: VecDeque::new(),
            lost: Vec::new(),
            messages: 0,
            topology_drops: 0,
        };
        if n == 1 {
            return Ok(transport); // no sockets at all
        }

        // Accept n−1 inbound connections on a helper thread while this
        // thread dials out, so neither side of the handshake can starve
        // the other. The listener polls non-blocking against a deadline —
        // a peer that never dials in becomes an error, not a hang.
        let accept_handle = std::thread::spawn(move || -> io::Result<Vec<TcpStream>> {
            listener.set_nonblocking(true)?;
            let start = Instant::now();
            let mut streams = Vec::with_capacity(n - 1);
            while streams.len() < n - 1 {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        stream.set_nodelay(true).ok();
                        streams.push(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if start.elapsed() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "accepted only {}/{} peer connections within {deadline:?}",
                                    streams.len(),
                                    n - 1,
                                ),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(streams)
        });

        // Dial every peer (ascending id), with backoff while they come up.
        let mut dial_err = None;
        for j in 0..n {
            if j == me.as_usize() {
                continue;
            }
            let addr = ("127.0.0.1", base_port + j as u16);
            match connect_with_backoff(addr, deadline) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let (tx, rx) = sync_channel::<WriterCmd>(WRITER_CHANNEL_BOUND);
                    transport.writer_handles.push(std::thread::spawn(move || {
                        writer_loop(stream, rx);
                    }));
                    transport.writers[j] = Some(tx);
                }
                Err(e) => {
                    dial_err = Some(io::Error::new(e.kind(), format!("node {me}: {e}")));
                    break;
                }
            }
        }

        let accepted = accept_handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("accept thread panicked")));
        if let Some(e) = dial_err {
            return Err(e); // Drop tears down whatever came up
        }
        let accepted = accepted.map_err(|e| {
            io::Error::new(e.kind(), format!("node {me}: accepting peers: {e}"))
        })?;

        for stream in accepted {
            transport.reader_streams.push(stream.try_clone()?);
            let tx = event_tx.clone();
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into());
            transport.reader_handles.push(std::thread::spawn(move || {
                reader_loop(stream, tx, peer);
            }));
        }
        // `event_tx` drops here: the channel disconnects only when every
        // reader thread has exited.
        Ok(transport)
    }

    /// Overrides the barrier wait cap (default [`BARRIER_TIMEOUT`]).
    pub fn barrier_timeout(mut self, timeout: Duration) -> Self {
        self.barrier_timeout = timeout;
        self
    }

    /// Protocol messages actually shipped over sockets (self-sends and
    /// topology drops excluded; round markers not counted).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Outbound messages dropped at the sender because the topology had no
    /// link that round (always 0 on the complete topology).
    pub fn topology_drops(&self) -> u64 {
        self.topology_drops
    }

    /// The topology frames are filtered against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn push_to_writer(&mut self, dst: usize, cmd: WriterCmd) -> io::Result<()> {
        let tx = self.writers[dst]
            .as_ref()
            .expect("writer exists for every peer");
        tx.send(cmd).map_err(|_| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!(
                    "node {}: connection to peer p{dst} is gone (write side)",
                    self.me
                ),
            )
        })
    }

    fn peer_loss_error(&self, round: Round, eor: usize) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!(
                "node {}: {round} barrier stalled at {eor}/{} end-of-round markers; \
                 lost peer(s): {}",
                self.me,
                self.n - 1,
                self.lost.join(", ")
            ),
        )
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<WriterCmd>) {
    let mut w = BufWriter::new(stream);
    while let Ok(cmd) = rx.recv() {
        let res = match cmd {
            WriterCmd::Bytes(bytes) => w.write_all(&bytes),
            WriterCmd::Flush => w.flush(),
        };
        if res.is_err() {
            // Exiting drops `rx`; the round loop sees the disconnect as a
            // send failure and reports the lost peer.
            return;
        }
    }
    let _ = w.flush();
}

fn reader_loop(stream: TcpStream, tx: SyncSender<Event>, peer: String) {
    let mut reader = BufReader::new(stream);
    loop {
        match decode_frame(&mut reader) {
            Ok(frame) => {
                if tx.send(Event::Frame(frame)).is_err() {
                    return; // round loop gone; nothing to report to
                }
            }
            Err(e) => {
                let diag = if e.kind() == io::ErrorKind::UnexpectedEof {
                    format!("{peer} (clean close)")
                } else {
                    format!("{peer} ({e})")
                };
                let _ = tx.send(Event::PeerLost(diag));
                return;
            }
        }
    }
}

impl RoundTransport<CongosMsg> for TcpTransport {
    fn send_outbox(
        &mut self,
        round: Round,
        src: ProcessId,
        out: &mut SendColumns<CongosMsg>,
    ) -> io::Result<()> {
        debug_assert_eq!(src, self.me, "a TcpTransport serves exactly one node");
        let r = round.as_u64();
        for (dst, tag, payload) in out.drain() {
            if dst == self.me {
                self.self_inbox.push(Envelope {
                    src: self.me,
                    dst,
                    round,
                    tag,
                    payload,
                });
                continue;
            }
            if !self.topology.connected(round, self.me, dst) {
                // The simulator's delivery phase would drop this envelope;
                // dropping at the sender keeps delivery sets identical and
                // saves the wire hop.
                self.topology_drops += 1;
                continue;
            }
            let frame = WireFrame::Msg {
                src: self.me,
                round: r,
                tag: tag.name().to_string(),
                payload,
            };
            let mut bytes = Vec::with_capacity(64);
            encode_frame(&mut bytes, &frame)?;
            self.push_to_writer(dst.as_usize(), WriterCmd::Bytes(bytes))?;
            self.messages += 1;
        }
        Ok(())
    }

    fn end_of_round(&mut self, round: Round, src: ProcessId) -> io::Result<()> {
        debug_assert_eq!(src, self.me);
        let marker = WireFrame::EndOfRound {
            src: self.me,
            round: round.as_u64(),
        };
        let mut bytes = Vec::with_capacity(16);
        encode_frame(&mut bytes, &marker)?;
        for dst in 0..self.n {
            if self.writers[dst].is_some() {
                self.push_to_writer(dst, WriterCmd::Bytes(bytes.clone()))?;
                self.push_to_writer(dst, WriterCmd::Flush)?;
            }
        }
        Ok(())
    }

    fn recv_until_barrier(
        &mut self,
        round: Round,
        dst: ProcessId,
        inbox: &mut Vec<Envelope<CongosMsg>>,
    ) -> io::Result<()> {
        debug_assert_eq!(dst, self.me);
        let r = round.as_u64();
        inbox.clear();
        inbox.append(&mut self.self_inbox);
        let mut eor = 0usize;

        // One decoded frame: deliver, count, park, or reject.
        fn classify(
            frame: WireFrame,
            r: u64,
            me: ProcessId,
            inbox: &mut Vec<Envelope<CongosMsg>>,
            eor: &mut usize,
        ) -> io::Result<Option<WireFrame>> {
            match frame {
                WireFrame::Msg {
                    src,
                    round: fr,
                    tag,
                    payload,
                } => {
                    if fr == r {
                        inbox.push(Envelope {
                            src,
                            dst: me,
                            round: Round(r),
                            tag: tag_by_name(&tag).unwrap_or(Tag("remote")),
                            payload,
                        });
                        Ok(None)
                    } else if fr > r {
                        Ok(Some(WireFrame::Msg {
                            src,
                            round: fr,
                            tag,
                            payload,
                        }))
                    } else {
                        // Streams are FIFO and the round-`fr` barrier was
                        // already passed — a frame this old is a bug or a
                        // hostile peer.
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("stale frame from {src}: round {fr} < current {r}"),
                        ))
                    }
                }
                WireFrame::EndOfRound { src, round: fr } => {
                    if fr == r {
                        *eor += 1;
                        Ok(None)
                    } else if fr > r {
                        Ok(Some(WireFrame::EndOfRound { src, round: fr }))
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("stale end-of-round from {src}: {fr} < current {r}"),
                        ))
                    }
                }
            }
        }

        // Frames that arrived during previous rounds, scanned exactly once.
        for frame in std::mem::take(&mut self.carried) {
            if let Some(parked) = classify(frame, r, self.me, inbox, &mut eor)? {
                self.carried.push_back(parked);
            }
        }

        let start = Instant::now();
        while eor < self.n - 1 {
            let timeout = if self.lost.is_empty() {
                match self.barrier_timeout.checked_sub(start.elapsed()) {
                    Some(left) if !left.is_zero() => left,
                    _ => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "node {}: {round} barrier timed out after {:?} \
                                 ({eor}/{} end-of-round markers)",
                                self.me,
                                self.barrier_timeout,
                                self.n - 1
                            ),
                        ));
                    }
                }
            } else {
                // A peer is gone; drain whatever it already sent, then fail
                // fast instead of waiting out the full barrier timeout.
                PEER_LOSS_GRACE
            };
            let rx = self.event_rx.as_ref().expect("receiver present outside Drop");
            match rx.recv_timeout(timeout) {
                Ok(Event::Frame(frame)) => {
                    if let Some(parked) = classify(frame, r, self.me, inbox, &mut eor)? {
                        self.carried.push_back(parked);
                    }
                }
                Ok(Event::PeerLost(diag)) => {
                    self.lost.push(diag);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected)
                    if !self.lost.is_empty() =>
                {
                    return Err(self.peer_loss_error(round, eor));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        format!(
                            "node {}: every peer reader exited before the {round} \
                             barrier completed ({eor}/{})",
                            self.me,
                            self.n - 1
                        ),
                    ));
                }
                Err(RecvTimeoutError::Timeout) => continue, // loop re-checks deadline
            }
        }
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Unblock readers stuck sending into a full event channel…
        drop(self.event_rx.take());
        // …and readers stuck in a socket read.
        for s in &self.reader_streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Writer threads flush what they have and exit once their channel
        // disconnects.
        for w in &mut self.writers {
            drop(w.take());
        }
        for h in self.writer_handles.drain(..) {
            let _ = h.join();
        }
        for h in self.reader_handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::transport::NodeDriver;
    use congos::{CongosInput, CongosNode};

    /// Two real nodes over loopback sockets: a rumor injected at node 0
    /// reaches node 1, driven entirely through the generic NodeDriver.
    #[test]
    fn two_nodes_exchange_over_sockets() {
        let base = 21200;
        let h = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(
                ProcessId::new(1),
                2,
                base,
                TopologySpec::Complete,
                7,
            )
            .expect("node 1 transport");
            let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(1), 2, 7);
            d.run_rounds(&mut t, 40, vec![]).expect("node 1 rounds");
            d.into_outputs()
        });
        let mut t =
            TcpTransport::connect(ProcessId::new(0), 2, base, TopologySpec::Complete, 7)
                .expect("node 0 transport");
        let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(0), 2, 7);
        let inj = CongosInput {
            wid: 0,
            data: b"hello".to_vec(),
            deadline: 32,
            dest: vec![ProcessId::new(1)],
        };
        d.run_rounds(&mut t, 40, vec![(0, inj)]).expect("node 0 rounds");
        assert!(t.messages() > 0, "traffic crossed the wire");
        let outs1 = h.join().expect("node 1 thread");
        assert_eq!(outs1.len(), 1, "node 1 delivered the rumor");
        assert_eq!(outs1[0].value.data, b"hello".to_vec());
    }

    /// A node whose peer dies mid-run gets a clean error, not a hang.
    #[test]
    fn peer_loss_is_a_clean_error() {
        let base = 21220;
        // Peer runs only 2 rounds then drops its transport (closing both
        // connections); the survivor wants 50.
        let h = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(
                ProcessId::new(1),
                2,
                base,
                TopologySpec::Complete,
                1,
            )
            .expect("node 1 transport");
            let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(1), 2, 1);
            d.run_rounds(&mut t, 2, vec![]).expect("node 1 rounds");
        });
        let mut t =
            TcpTransport::connect(ProcessId::new(0), 2, base, TopologySpec::Complete, 1)
                .expect("node 0 transport")
                .barrier_timeout(Duration::from_secs(10));
        let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(0), 2, 1);
        let err = d
            .run_rounds(&mut t, 50, vec![])
            .expect_err("peer death must surface as an error");
        h.join().expect("peer thread");
        let msg = err.to_string();
        assert!(
            msg.contains("lost peer") || msg.contains("gone") || msg.contains("reader"),
            "diagnostic names the peer loss: {msg}"
        );
    }

    /// Dialing a cluster whose peer never shows up fails with a timeout
    /// diagnostic instead of blocking forever.
    #[test]
    fn missing_peer_times_out() {
        // Nothing listens on the peer port and nothing ever dials us: the
        // accept loop and the dial both run against the deadline. Use a
        // bogus port pair well outside every other test's range.
        let deadline = Duration::from_millis(600);
        let start = Instant::now();
        let err = TcpTransport::connect_deadline(
            ProcessId::new(0),
            2,
            21240,
            TopologySpec::Complete,
            0,
            deadline,
        )
        .expect_err("no peer exists");
        assert!(start.elapsed() < deadline + Duration::from_secs(10));
        let msg = err.to_string();
        assert!(
            msg.contains("connect") || msg.contains("accept"),
            "diagnostic mentions the handshake: {msg}"
        );
    }
}
