//! `TcpTransport` — the socket-backed [`RoundTransport`].
//!
//! One instance backs ONE node of a cluster and runs on that node's thread:
//! once constructed it owns no threads and no channels, only non-blocking
//! sockets and their buffers.
//!
//! * **Connections**: one outbound TCP connection per peer, dialed with
//!   capped exponential backoff while the peers come up and only ever
//!   written; one inbound connection per peer, accepted during construction
//!   and only ever read.
//! * **Sending**: the round's outbox is stable-sorted by destination, and
//!   each peer's frames, followed by the round's end-of-round marker, are
//!   encoded into one reusable scratch buffer and written with one `write`
//!   — every peer gets that write, in ascending id order, even when it has
//!   no frames. That closes the round: a later frame would follow a marker,
//!   so a second `send_outbox` is `InvalidInput`, and `end_of_round` only
//!   sends the markers `send_outbox` did not. The node's one [`Encoder`]
//!   writes a gossip rumor's bytes to a peer once and refers to them
//!   afterwards (see [`codec`](crate::codec)). Only the bytes the socket
//!   would not take wait in that peer's pending buffer, which is freed once
//!   it drains.
//! * **Receiving**: each inbound connection reads into its own buffer, and
//!   the complete frames in it are decoded in place after every read, by
//!   the node's one [`Decoder`], which resolves each peer's references to
//!   the rumors that peer defined. An inbound connection speaks for the
//!   peer named by its first frame; a frame naming another process, or a
//!   second connection claiming the same peer, is `InvalidData`.
//! * **Self-sends** loop back in memory and never touch a socket.
//! * **Sender-side topology filtering**: frames whose `(src, dst)` link is
//!   absent this round are dropped before the wire — exactly the envelopes
//!   the simulator's delivery phase would drop, which keeps delivery sets
//!   identical and saves the hop. A dropped frame tells its peer nothing.
//!
//! The barrier ([`recv_until_barrier`](RoundTransport::recv_until_barrier))
//! is one `poll(2)` loop that reads every inbound connection and flushes
//! every pending buffer until each peer's end-of-round marker has arrived
//! *and* nothing is left to send — so two nodes that both send more than a
//! socket buffer holds in one round cannot deadlock. A second marker from
//! one peer in one round is `InvalidData`. Peers may run one superstep ahead
//! (they can finish round `r` and send round `r + 1` traffic before this
//! node passes its own round-`r` barrier), so future-round frames are
//! parked in a carried queue scanned once per round. Past-round frames are a
//! protocol violation (per-peer streams are FIFO and the barrier was passed)
//! and error out as `InvalidData`, and so do frames two or more rounds
//! ahead: a peer cannot pass its round-`r + 1` barrier before this node has
//! sent its round-`r + 1` marker. That bound is what lets both rumor tables
//! drop a rumor once the round has passed its deadline. A peer whose
//! connection closes before its marker is lost: the barrier returns an
//! error naming it instead of hanging. Writing to a peer that has gone is an
//! `EPIPE` error rather than a fatal signal because the Rust runtime
//! ignores `SIGPIPE` by default.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use congos::CongosMsg;
use congos_sim::message::SendColumns;
use congos_sim::topology::{Topology, TopologySpec};
use congos_sim::transport::RoundTransport;
use congos_sim::{Envelope, ProcessId, Round};

use crate::codec::{encode_frame, Decoder, Encoder, WireFrame, WireStats};
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};

/// How long to keep retrying an outbound dial while peers come up.
pub const CONNECT_DEADLINE: Duration = Duration::from_secs(20);
/// Backoff cap between dial retries.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(100);
/// Default cap on waiting for a round barrier before declaring the cluster
/// wedged.
pub const BARRIER_TIMEOUT: Duration = Duration::from_secs(30);
/// Free space each inbound buffer offers a read. A buffer with less free
/// space at least doubles, so growing one costs O(its final size) in all,
/// and it stays below 2 × (largest frame + `READ_CHUNK`): it only ever
/// holds one partial frame plus one read.
const READ_CHUNK: usize = 16 * 1024;

/// One peer: the connection this node dialed to it, and what the peer's own
/// (inbound) connection has told this node so far.
#[derive(Debug)]
struct Peer {
    /// Written only.
    out: TcpStream,
    /// Bytes the socket would not take yet, from `sent` on. Empty and
    /// unallocated whenever the socket has kept up.
    pending: Vec<u8>,
    sent: usize,
    /// Whether an inbound connection speaks for this peer.
    claimed: bool,
    /// Whether this peer's end-of-round marker for the current round has
    /// arrived.
    marked: bool,
    /// The last round whose end-of-round marker this node sent the peer
    /// (written or pending): nothing more may follow it that round.
    marker_sent: Option<u64>,
}

impl Peer {
    /// Writes `bytes` after whatever is pending, without blocking: what the
    /// socket does not take now waits in `pending`.
    fn send(&mut self, bytes: &[u8], wire: &mut WireStats) -> io::Result<()> {
        let written = if self.pending.is_empty() {
            write_some(&mut self.out, bytes, wire)?
        } else {
            0
        };
        self.pending.extend_from_slice(&bytes[written..]);
        Ok(())
    }

    /// Writes pending bytes until the socket would block, and frees the
    /// buffer once it has drained.
    fn flush(&mut self, wire: &mut WireStats) -> io::Result<()> {
        self.sent += write_some(&mut self.out, &self.pending[self.sent..], wire)?;
        if self.sent == self.pending.len() {
            self.pending = Vec::new();
            self.sent = 0;
        }
        Ok(())
    }
}

/// Writes a prefix of `bytes` without blocking and returns its length,
/// counting the calls and bytes in `wire`.
fn write_some(stream: &mut TcpStream, bytes: &[u8], wire: &mut WireStats) -> io::Result<usize> {
    let mut written = 0;
    while written < bytes.len() {
        wire.writes += 1;
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => {
                written += k;
                wire.bytes_out += k as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// One connection a peer dialed to this node.
#[derive(Debug)]
struct Inbound {
    stream: TcpStream,
    /// `buf[..filled]` holds bytes read but not yet decoded.
    buf: Vec<u8>,
    filled: usize,
    /// The peer this connection speaks for, once its first frame named it.
    peer: Option<ProcessId>,
    /// The peer closed the connection.
    closed: bool,
}

/// The socket-backed delivery substrate for one node of a localhost (or
/// LAN) cluster. See the module docs for the wiring.
#[derive(Debug)]
pub struct TcpTransport {
    me: ProcessId,
    n: usize,
    topology: Topology,
    barrier_timeout: Duration,
    /// Indexed by peer id; `None` at `me` (and everywhere when `n == 1`).
    peers: Vec<Option<Peer>>,
    inbound: Vec<Inbound>,
    /// Encodes every outbound frame: the told table.
    encoder: Encoder,
    /// Decodes every inbound frame: the kept table.
    decoder: Decoder,
    /// The round's socket-bound messages, sorted by destination; empty
    /// between rounds.
    outbox: Vec<(ProcessId, CongosMsg)>,
    /// Encode buffer shared by every frame this node sends: one peer's
    /// frames of a round and its marker, or a marker alone.
    scratch: Vec<u8>,
    /// `poll` set: one entry per inbound connection, then one per peer id.
    pollfds: Vec<PollFd>,
    /// Loopback buffer for self-sends (drained at the next receive).
    self_inbox: Vec<Envelope<CongosMsg>>,
    /// Frames from future rounds, parked until their round starts.
    carried: VecDeque<WireFrame>,
    messages: u64,
    topology_drops: u64,
    /// The socket counters; the encoder and decoder keep the rest.
    wire: WireStats,
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
    /// (node `i` listens on `base_port + i`) through its already-bound
    /// `listener`. The cluster launcher binds every listener before any
    /// node dials, which removes the bind/dial race entirely.
    ///
    /// Blocks until all `n − 1` peer connections exist in both directions,
    /// retrying dials with capped exponential backoff for up to
    /// [`CONNECT_DEADLINE`].
    ///
    /// # Errors
    ///
    /// Dial failures after the retry deadline, and accept timeouts (a peer
    /// that never dialed in).
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

    /// [`with_listener`](Self::with_listener) with an explicit handshake
    /// deadline (applies to both the dial retries and the accept wait).
    fn build(
        me: ProcessId,
        n: usize,
        base_port: u16,
        listener: TcpListener,
        topology: TopologySpec,
        seed: u64,
        deadline: Duration,
    ) -> io::Result<Self> {
        let mut transport = TcpTransport {
            me,
            n,
            topology: Topology::build(topology, n, seed),
            barrier_timeout: BARRIER_TIMEOUT,
            peers: (0..n).map(|_| None).collect(),
            inbound: Vec::new(),
            encoder: Encoder::new(n),
            decoder: Decoder::new(n),
            outbox: Vec::new(),
            scratch: Vec::new(),
            pollfds: Vec::new(),
            self_inbox: Vec::new(),
            carried: VecDeque::new(),
            messages: 0,
            topology_drops: 0,
            wire: WireStats::default(),
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
                        stream.set_nonblocking(true)?;
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
            let dialed = connect_with_backoff(addr, deadline).and_then(|out| {
                out.set_nodelay(true).ok();
                out.set_nonblocking(true)?;
                Ok(out)
            });
            match dialed {
                Ok(out) => {
                    transport.peers[j] = Some(Peer {
                        out,
                        pending: Vec::new(),
                        sent: 0,
                        claimed: false,
                        marked: false,
                        marker_sent: None,
                    });
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
            return Err(e);
        }
        let accepted = accepted
            .map_err(|e| io::Error::new(e.kind(), format!("node {me}: accepting peers: {e}")))?;
        transport.inbound = accepted
            .into_iter()
            .map(|stream| Inbound {
                stream,
                buf: Vec::new(),
                filled: 0,
                peer: None,
                closed: false,
            })
            .collect();
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

    /// What this node did on the wire: bytes and `write` calls, and the
    /// gossip rumors it defined, referred to, decoded and evicted.
    pub fn wire_stats(&self) -> WireStats {
        let mut stats = self.wire;
        stats += self.encoder.stats();
        stats += self.decoder.stats();
        stats
    }

    /// Sends the frames in `scratch` to peer `dst`.
    fn send_scratch(&mut self, dst: ProcessId) -> io::Result<()> {
        let peer = self.peers[dst.as_usize()]
            .as_mut()
            .expect("a connection to every peer");
        peer.send(&self.scratch, &mut self.wire)
            .map_err(|e| write_error(self.me, dst.as_usize(), e))
    }

    /// Appends `round`'s end-of-round marker to `scratch` and sends the lot
    /// to peer `dst`, whose round it closes.
    fn close_round(&mut self, dst: ProcessId, round: Round) -> io::Result<()> {
        let marker = WireFrame::EndOfRound {
            src: self.me,
            round: round.as_u64(),
        };
        encode_frame(&mut self.scratch, &marker)?;
        self.send_scratch(dst)?;
        let peer = self.peers[dst.as_usize()].as_mut().expect("a peer");
        peer.marker_sent = Some(round.as_u64());
        Ok(())
    }

    /// Reads inbound connection `i` until it would block, decoding each
    /// complete frame as soon as it is in the buffer.
    fn read_inbound(
        &mut self,
        i: usize,
        r: u64,
        inbox: &mut Vec<Envelope<CongosMsg>>,
    ) -> io::Result<()> {
        let TcpTransport {
            me,
            peers,
            inbound,
            decoder,
            carried,
            ..
        } = self;
        let conn = &mut inbound[i];
        loop {
            if conn.buf.len() - conn.filled < READ_CHUNK {
                // Sized from bytes already here, never from a length prefix
                // whose frame has not arrived (see `READ_CHUNK`).
                let len = (conn.filled + READ_CHUNK).max(2 * conn.buf.len());
                conn.buf.resize(len, 0);
            }
            match conn.stream.read(&mut conn.buf[conn.filled..]) {
                Ok(0) => {
                    conn.closed = true;
                    return Ok(());
                }
                Ok(k) => conn.filled += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("node {me}: lost peer {}: {e}", speaker(conn.peer)),
                    ))
                }
            }
            let mut pos = 0;
            while let Some((frame, used)) =
                decoder.decode(&conn.buf[pos..conn.filled]).map_err(|e| {
                    io::Error::new(
                        e.kind(),
                        format!("node {me}: bad frame from {}: {e}", speaker(conn.peer)),
                    )
                })?
            {
                pos += used;
                bind(&mut conn.peer, frame.src(), peers)?;
                route(frame, r, *me, peers, inbox, carried)?;
            }
            conn.buf.copy_within(pos..conn.filled, 0);
            conn.filled -= pos;
        }
    }

    /// The error of a barrier that can no longer complete because a peer
    /// closed its connection before sending this round's marker.
    fn lost_peer(&self, round: Round) -> Option<io::Error> {
        let marked = |p: ProcessId| self.peers[p.as_usize()].as_ref().is_some_and(|p| p.marked);
        let conn = self
            .inbound
            .iter()
            .find(|c| c.closed && !c.peer.is_some_and(marked))?;
        Some(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!(
                "node {}: {round} barrier: lost peer {} (connection closed before \
                 its end-of-round marker)",
                self.me,
                speaker(conn.peer)
            ),
        ))
    }
}

/// Names the peer behind a connection in diagnostics.
fn speaker(peer: Option<ProcessId>) -> String {
    peer.map_or_else(|| "<not yet named>".into(), |p| p.to_string())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_error(me: ProcessId, dst: usize, e: io::Error) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("node {me}: connection to peer p{dst} is gone (write side): {e}"),
    )
}

/// Checks that a frame from `src` may arrive on a connection bound to
/// `conn`, binding the connection to `src` on its first frame.
fn bind(
    conn: &mut Option<ProcessId>,
    src: ProcessId,
    peers: &mut [Option<Peer>],
) -> io::Result<()> {
    match *conn {
        Some(p) if p == src => Ok(()),
        Some(p) => Err(invalid(format!(
            "the connection of {p} sent a frame from {src}"
        ))),
        None => {
            let peer = peers[src.as_usize()]
                .as_mut()
                .ok_or_else(|| invalid(format!("a peer claims to be this node, {src}")))?;
            if peer.claimed {
                return Err(invalid(format!("a second connection claims {src}")));
            }
            peer.claimed = true;
            *conn = Some(src);
            Ok(())
        }
    }
}

/// Routes one frame while this node is in round `r`: into the inbox, onto
/// its sender's marker, or into `carried` if it belongs to a later round.
fn route(
    frame: WireFrame,
    r: u64,
    me: ProcessId,
    peers: &mut [Option<Peer>],
    inbox: &mut Vec<Envelope<CongosMsg>>,
    carried: &mut VecDeque<WireFrame>,
) -> io::Result<()> {
    let fr = frame.round();
    if fr > r + 1 {
        return Err(invalid(format!(
            "frame from {} for round {fr}, more than one round ahead of {r}",
            frame.src()
        )));
    }
    if fr > r {
        carried.push_back(frame);
        return Ok(());
    }
    if fr < r {
        // Streams are FIFO and the round-`fr` barrier was already passed —
        // a frame this old is a bug or a hostile peer.
        return Err(invalid(format!(
            "stale frame from {}: round {fr} < current {r}",
            frame.src()
        )));
    }
    match frame {
        WireFrame::Msg { src, payload, .. } => inbox.push(Envelope {
            src,
            dst: me,
            round: Round(r),
            tag: payload.tag(),
            payload,
        }),
        WireFrame::EndOfRound { src, .. } => {
            let peer = peers[src.as_usize()]
                .as_mut()
                .expect("bound connections speak for peers");
            if std::mem::replace(&mut peer.marked, true) {
                return Err(invalid(format!(
                    "second end-of-round marker from {src} in round {r}"
                )));
            }
        }
    }
    Ok(())
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
        if self
            .peers
            .iter()
            .flatten()
            .any(|p| p.marker_sent == Some(r))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "node {}: {round} is closed: a frame after its end-of-round \
                     marker would break the peer's barrier",
                    self.me
                ),
            ));
        }
        let mut outbox = std::mem::take(&mut self.outbox);
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
            outbox.push((dst, payload));
        }
        // Stable: each peer's messages keep their send order.
        outbox.sort_by_key(|&(dst, _)| dst);
        let mut frames = outbox.drain(..).peekable();
        for dst in (0..self.n).map(ProcessId::new) {
            if dst == self.me {
                continue;
            }
            self.scratch.clear();
            while let Some((_, payload)) = frames.next_if(|&(d, _)| d == dst) {
                let frame = WireFrame::Msg {
                    src: self.me,
                    round: r,
                    payload,
                };
                if let Err(e) = self.encoder.encode_frame(&mut self.scratch, &frame, dst) {
                    // The frames already in the batch were told: they go
                    // out, and the round stays open.
                    self.send_scratch(dst)?;
                    return Err(e);
                }
                self.messages += 1;
            }
            self.close_round(dst, round)?;
        }
        drop(frames);
        self.outbox = outbox;
        Ok(())
    }

    fn end_of_round(&mut self, round: Round, src: ProcessId) -> io::Result<()> {
        debug_assert_eq!(src, self.me);
        // `send_outbox` closed the round to every peer it wrote to.
        for dst in (0..self.n).map(ProcessId::new) {
            if self.peers[dst.as_usize()]
                .as_ref()
                .is_some_and(|p| p.marker_sent != Some(round.as_u64()))
            {
                self.scratch.clear();
                self.close_round(dst, round)?;
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
        for peer in self.peers.iter_mut().flatten() {
            peer.marked = false;
        }
        // Frames that arrived during the previous round, scanned exactly once.
        for frame in std::mem::take(&mut self.carried) {
            route(frame, r, self.me, &mut self.peers, inbox, &mut self.carried)?;
        }

        let deadline = Instant::now() + self.barrier_timeout;
        loop {
            if self
                .peers
                .iter()
                .flatten()
                .all(|p| p.marked && p.pending.is_empty())
            {
                return Ok(());
            }
            if let Some(e) = self.lost_peer(round) {
                return Err(e);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let waiting: Vec<String> = (0..self.n)
                    .filter(|&j| self.peers[j].as_ref().is_some_and(|p| !p.marked))
                    .map(|j| format!("p{j}"))
                    .collect();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "node {}: {round} barrier timed out after {:?} \
                         ({}/{} end-of-round markers; waiting for [{}])",
                        self.me,
                        self.barrier_timeout,
                        self.n - 1 - waiting.len(),
                        self.n - 1,
                        waiting.join(", ")
                    ),
                ));
            }

            self.pollfds.clear();
            self.pollfds.extend(self.inbound.iter().map(|c| {
                if c.closed {
                    PollFd::idle()
                } else {
                    PollFd::new(&c.stream, POLLIN)
                }
            }));
            self.pollfds.extend(self.peers.iter().map(|p| match p {
                Some(p) if !p.pending.is_empty() => PollFd::new(&p.out, POLLOUT),
                _ => PollFd::idle(),
            }));
            if poll(&mut self.pollfds, left)? == 0 {
                continue;
            }
            let k = self.inbound.len();
            for i in 0..k {
                if self.pollfds[i].ready() {
                    self.read_inbound(i, r, inbox)?;
                }
            }
            for j in 0..self.n {
                if self.pollfds[k + j].ready() {
                    let peer = self.peers[j].as_mut().expect("polled peers exist");
                    peer.flush(&mut self.wire)
                        .map_err(|e| write_error(self.me, j, e))?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use congos::messages::GossipLane;
    use congos::{
        CongosInput, CongosNode, CongosRumorId, Fragment, GossipPayload, Rumor, TAG_PROXY,
        TAG_SHOOT,
    };
    use congos_gossip::{GossipRumor, GossipWire, RumorId};
    use congos_sim::transport::NodeDriver;
    use congos_sim::{IdSet, NullObserver};

    use crate::codec::MAX_FRAME_LEN;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Dials node 0 of the cluster at `base` as raw-socket stand-ins for
    /// peers `1..n`, after binding their listeners so node 0 can dial them.
    /// Returns the listeners (keep them alive) and one stream per peer.
    fn raw_peers(n: usize, base: u16) -> (Vec<TcpListener>, Vec<TcpStream>) {
        let listeners = (1..n)
            .map(|j| TcpListener::bind(("127.0.0.1", base + j as u16)).expect("bind"))
            .collect();
        let streams = (1..n)
            .map(|_| connect_with_backoff(("127.0.0.1", base), CONNECT_DEADLINE).expect("dial"))
            .collect();
        (listeners, streams)
    }

    /// Node `me` of an `n`-node cluster at `base`, on its own listener.
    fn connect(me: ProcessId, n: usize, base: u16, seed: u64) -> io::Result<TcpTransport> {
        connect_deadline(me, n, base, seed, CONNECT_DEADLINE)
    }

    fn connect_deadline(
        me: ProcessId,
        n: usize,
        base: u16,
        seed: u64,
        deadline: Duration,
    ) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(("127.0.0.1", base + me.as_usize() as u16))?;
        TcpTransport::build(
            me,
            n,
            base,
            listener,
            TopologySpec::Complete,
            seed,
            deadline,
        )
    }

    fn encoded(frames: &[WireFrame]) -> Vec<u8> {
        let mut buf = Vec::new();
        for f in frames {
            encode_frame(&mut buf, f).expect("encodes");
        }
        buf
    }

    /// Node 0 of an `n`-node cluster at `base`: sends only its round-0
    /// marker, then returns what its round-0 barrier returns.
    fn barrier_of_node_0(
        n: usize,
        base: u16,
    ) -> std::thread::JoinHandle<io::Result<Vec<Envelope<CongosMsg>>>> {
        std::thread::spawn(move || {
            let me = pid(0);
            let mut t = connect(me, n, base, 0)?.barrier_timeout(Duration::from_secs(10));
            t.end_of_round(Round(0), me)?;
            let mut inbox = Vec::new();
            t.recv_until_barrier(Round(0), me, &mut inbox)?;
            Ok(inbox)
        })
    }

    fn shoot(data: Vec<u8>, dest: ProcessId, n: usize) -> CongosMsg {
        CongosMsg::Shoot {
            rumor: Arc::new(Rumor {
                wid: 1,
                data,
                deadline: 64,
                dest: IdSet::from_iter(n, [dest]),
            }),
            rid: CongosRumorId {
                source: pid(1),
                birth: Round(0),
                seq: 0,
            },
            direct: true,
        }
    }

    /// Two real nodes over loopback sockets: a rumor injected at node 0
    /// reaches node 1, driven entirely through the generic NodeDriver.
    #[test]
    fn two_nodes_exchange_over_sockets() {
        let base = 21200;
        let h = std::thread::spawn(move || {
            let mut t = connect(ProcessId::new(1), 2, base, 7).expect("node 1 transport");
            let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(1), 2, 7);
            d.run_rounds(&mut t, 40, vec![], &mut NullObserver)
                .expect("node 1 rounds");
            d.into_outputs()
        });
        let mut t = connect(ProcessId::new(0), 2, base, 7).expect("node 0 transport");
        let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(0), 2, 7);
        let inj = CongosInput {
            wid: 0,
            data: b"hello".to_vec(),
            deadline: 32,
            dest: vec![ProcessId::new(1)],
        };
        d.run_rounds(&mut t, 40, vec![(0, inj)], &mut NullObserver)
            .expect("node 0 rounds");
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
            let mut t = connect(ProcessId::new(1), 2, base, 1).expect("node 1 transport");
            let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(1), 2, 1);
            d.run_rounds(&mut t, 2, vec![], &mut NullObserver)
                .expect("node 1 rounds");
        });
        let mut t = connect(ProcessId::new(0), 2, base, 1)
            .expect("node 0 transport")
            .barrier_timeout(Duration::from_secs(10));
        let mut d = NodeDriver::<CongosNode>::new(ProcessId::new(0), 2, 1);
        let err = d
            .run_rounds(&mut t, 50, vec![], &mut NullObserver)
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
        let err =
            connect_deadline(ProcessId::new(0), 2, 21240, 0, deadline).expect_err("no peer exists");
        assert!(start.elapsed() < deadline + Duration::from_secs(10));
        let msg = err.to_string();
        assert!(
            msg.contains("connect") || msg.contains("accept"),
            "diagnostic mentions the handshake: {msg}"
        );
    }

    /// A forged or duplicated end-of-round marker must not stand in for a
    /// missing peer's: the barrier counts peers, not markers.
    #[test]
    fn duplicate_end_of_round_marker_is_rejected() {
        let base = 21260;
        let node = barrier_of_node_0(3, base);
        let (_listeners, mut fakes) = raw_peers(3, base);
        let eor = WireFrame::EndOfRound {
            src: pid(1),
            round: 0,
        };
        fakes[0]
            .write_all(&encoded(&[eor.clone(), eor]))
            .expect("write");
        let err = node
            .join()
            .expect("node thread")
            .expect_err("p2 never sent its marker");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string()
                .contains("second end-of-round marker from p1"),
            "{err}"
        );
    }

    /// A frame two rounds ahead cannot come from a peer that waits for this
    /// node's markers: it is refused rather than parked, so it can neither
    /// pile up nor move the decoder's eviction clock.
    #[test]
    fn a_frame_two_rounds_ahead_is_rejected() {
        let base = 21340;
        let node = barrier_of_node_0(2, base);
        let (_listeners, mut fakes) = raw_peers(2, base);
        let ahead = WireFrame::EndOfRound {
            src: pid(1),
            round: 2,
        };
        fakes[0].write_all(&encoded(&[ahead])).expect("write");
        let err = node
            .join()
            .expect("node thread")
            .expect_err("round 2 is two rounds ahead of round 0");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("more than one round ahead"),
            "{err}"
        );
    }

    /// A peer naming a process the cluster does not have is refused at the
    /// codec, so the protocol never indexes its tables with that id.
    #[test]
    fn out_of_range_process_id_is_an_error_not_a_panic() {
        let (base, n) = (21280, 8);
        let node = std::thread::spawn(move || {
            let me = pid(0);
            let mut t = connect(me, n, base, 0)?.barrier_timeout(Duration::from_secs(10));
            NodeDriver::<CongosNode>::new(me, n, 0).run_rounds(&mut t, 1, vec![], &mut NullObserver)
        });
        let (_listeners, mut fakes) = raw_peers(n, base);
        for (j, fake) in fakes.iter_mut().enumerate() {
            let mut frames = vec![WireFrame::EndOfRound {
                src: pid(j + 1),
                round: 0,
            }];
            if j == 0 {
                frames.insert(
                    0,
                    WireFrame::Msg {
                        src: pid(9),
                        round: 0,
                        payload: CongosMsg::ProxyAck { dline: 64, ell: 0 },
                    },
                );
            }
            fake.write_all(&encoded(&frames)).expect("write");
        }
        let err = node
            .join()
            .expect("the node must not panic")
            .expect_err("p9 does not exist");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Two nodes that each send more than the loopback socket buffers hold
    /// in the same round must both complete: neither blocks in a write
    /// while the other waits to be read.
    #[test]
    fn frames_larger_than_socket_buffers_cross_both_ways() {
        let base = 21300;
        let node = move |i: usize| -> io::Result<Vec<Vec<Envelope<CongosMsg>>>> {
            let (me, peer) = (pid(i), pid(1 - i));
            let mut t = connect(me, 2, base, 0)?.barrier_timeout(Duration::from_secs(20));
            let mut inboxes = Vec::new();
            for r in 0..2 {
                let mut out = SendColumns::default();
                for _ in 0..3 {
                    let msg = shoot(vec![i as u8; 4 << 20], peer, 2);
                    out.push(peer, msg.tag(), msg);
                }
                t.send_outbox(Round(r), me, &mut out)?;
                t.end_of_round(Round(r), me)?;
                let mut inbox = Vec::new();
                t.recv_until_barrier(Round(r), me, &mut inbox)?;
                inboxes.push(inbox);
            }
            Ok(inboxes)
        };
        let h = std::thread::spawn(move || node(1));
        let rounds = [
            node(0).expect("node 0"),
            h.join().expect("node 1 thread").expect("node 1"),
        ];
        for (i, inboxes) in rounds.iter().enumerate() {
            for inbox in inboxes {
                assert_eq!(inbox.len(), 3, "node {i}");
                for env in inbox {
                    assert_eq!(env.src, pid(1 - i));
                    assert_eq!(env.payload, shoot(vec![(1 - i) as u8; 4 << 20], pid(i), 2));
                }
            }
        }
    }

    /// Frames that arrive one byte per segment are reassembled in the
    /// connection's buffer and decoded once whole, tags re-derived.
    #[test]
    fn frames_written_one_byte_at_a_time_decode() {
        let base = 21320;
        let node = barrier_of_node_0(2, base);
        let (_listeners, mut fakes) = raw_peers(2, base);
        let ack = CongosMsg::ProxyAck { dline: 64, ell: 0 };
        let shot = shoot(b"one byte at a time".to_vec(), pid(0), 2);
        let msg = |payload| WireFrame::Msg {
            src: pid(1),
            round: 0,
            payload,
        };
        let eor = WireFrame::EndOfRound {
            src: pid(1),
            round: 0,
        };
        fakes[0].set_nodelay(true).expect("nodelay");
        for byte in encoded(&[msg(ack.clone()), msg(shot.clone()), eor]) {
            fakes[0].write_all(&[byte]).expect("write");
        }
        let inbox = node.join().expect("node thread").expect("barrier");
        let got: Vec<_> = inbox.iter().map(|e| (e.src, e.tag, &e.payload)).collect();
        assert_eq!(got, [(pid(1), TAG_PROXY, &ack), (pid(1), TAG_SHOOT, &shot)]);
    }

    /// The lane of every test push.
    const LANE: GossipLane = GossipLane::All { dline: 64 };

    /// A gossip rumor of a two-node cluster with one `len`-byte fragment,
    /// live until round 1000.
    fn gossip_rumor(seq: u32, len: usize) -> GossipRumor<GossipPayload> {
        let rid = CongosRumorId {
            source: pid(0),
            birth: Round(0),
            seq,
        };
        GossipRumor {
            id: RumorId {
                origin: pid(0),
                birth: Round(0),
                seq,
            },
            payload: GossipPayload::Fragments(vec![Fragment {
                rid,
                wid: seq as u64,
                partition: 0,
                group: 0,
                k: 1,
                bytes: vec![seq as u8; len].into(),
                dest: IdSet::from_iter(2, [pid(1)]).into(),
                dline: 64,
            }]),
            duration: 1000,
            deadline: Round(1000),
            dest: IdSet::from_iter(2, [pid(1)]),
            best_effort: false,
        }
    }

    fn push_of(rumors: Vec<GossipRumor<GossipPayload>>) -> CongosMsg {
        CongosMsg::Gossip {
            lane: LANE,
            wire: GossipWire::Push(Arc::new(rumors.into())),
        }
    }

    /// Runs `send` on node 0 of an `n`-node cluster at `base`, whose peers
    /// are raw sockets. Returns the transport and, for each peer `1..n`,
    /// every byte it wrote to that peer.
    fn node_0_writes(
        n: usize,
        base: u16,
        topology: TopologySpec,
        seed: u64,
        send: impl FnOnce(&mut TcpTransport) + Send + 'static,
    ) -> (TcpTransport, Vec<Vec<u8>>) {
        let node = std::thread::spawn(move || {
            let listener = TcpListener::bind(("127.0.0.1", base)).expect("bind");
            let mut t =
                TcpTransport::build(pid(0), n, base, listener, topology, seed, CONNECT_DEADLINE)
                    .expect("node 0 transport");
            send(&mut t);
            t
        });
        let (listeners, _fakes) = raw_peers(n, base);
        let mut t = node.join().expect("node thread");
        let bytes = listeners
            .iter()
            .enumerate()
            .map(|(i, listener)| {
                // Closing the connection ends the peer's stream.
                let out = t.peers[i + 1].take().expect("a peer").out;
                drop(out);
                let (mut from_node, _) = listener.accept().expect("node 0 dialed the peer");
                let mut bytes = Vec::new();
                from_node.read_to_end(&mut bytes).expect("read");
                bytes
            })
            .collect();
        (t, bytes)
    }

    /// Decodes every frame of `bytes` with one fresh decoder of an `n`-node
    /// cluster.
    fn frames_in(n: usize, bytes: &[u8]) -> Vec<WireFrame> {
        let mut dec = Decoder::new(n);
        let mut rest = bytes;
        let mut frames = Vec::new();
        while let Some((frame, used)) = dec.decode(rest).expect("decodes") {
            frames.push(frame);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
        frames
    }

    /// The messages among `frames`, markers skipped.
    fn msgs(frames: Vec<WireFrame>) -> Vec<CongosMsg> {
        frames
            .into_iter()
            .filter_map(|f| match f {
                WireFrame::Msg { payload, .. } => Some(payload),
                WireFrame::EndOfRound { .. } => None,
            })
            .collect()
    }

    /// Node 0's round-`r` end-of-round marker.
    fn marker(r: u64) -> WireFrame {
        WireFrame::EndOfRound {
            src: pid(0),
            round: r,
        }
    }

    /// A frame the topology drops tells its peer nothing: the first push
    /// over the restored link defines the rumor, and only the next one
    /// refers to it.
    #[test]
    fn a_frame_the_topology_drops_tells_the_peer_nothing() {
        let (spec, seed) = (TopologySpec::churn(0.5), 3);
        let topology = Topology::build(spec, 2, seed);
        let up = |r: u64| topology.connected(Round(r), pid(0), pid(1));
        let down = (0..).find(|&r| !up(r)).expect("a round without the link");
        let rounds: Vec<u64> = std::iter::once(down)
            .chain((down + 1..).filter(|&r| up(r)).take(2))
            .collect();
        let rumor = gossip_rumor(0, 8);
        let id = rumor.id;
        let (t, bytes) = node_0_writes(2, 21360, spec, seed, move |t| {
            for r in rounds {
                let mut out = SendColumns::default();
                let msg = push_of(vec![rumor.clone()]);
                out.push(pid(1), msg.tag(), msg);
                t.send_outbox(Round(r), pid(0), &mut out).expect("send");
                assert_eq!(t.encoder.told(LANE, id, pid(1)), r != down, "round {r}");
            }
        });
        assert_eq!(t.topology_drops(), 1);
        let stats = t.wire_stats();
        assert_eq!((stats.rumors_defined, stats.rumors_referenced), (1, 1));
        // A fresh decoder resolves the reference only after the definition.
        let frames = msgs(frames_in(2, &bytes[0]));
        assert_eq!(frames.len(), 2);
        for payload in frames {
            assert!(payload == push_of(vec![gossip_rumor(0, 8)]));
        }
    }

    /// A frame that cannot be encoded fails the send and tells its rumors
    /// to nobody; the frames before it in the peer's batch still go out.
    #[test]
    fn an_encode_error_leaves_no_told_mark() {
        let (small, other) = (gossip_rumor(0, 8), gossip_rumor(1, 8));
        let (first, second) = (small.id, other.id);
        let (t, bytes) = node_0_writes(2, 21380, TopologySpec::Complete, 0, move |t| {
            let mut out = SendColumns::default();
            for rumors in [vec![small], vec![other, gossip_rumor(2, MAX_FRAME_LEN)]] {
                let msg = push_of(rumors);
                out.push(pid(1), msg.tag(), msg);
            }
            let err = t.send_outbox(Round(0), pid(0), &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(t.encoder.told(LANE, first, pid(1)));
            assert!(!t.encoder.told(LANE, second, pid(1)));
        });
        assert_eq!(t.messages(), 1);
        let frames = msgs(frames_in(2, &bytes[0]));
        assert_eq!(frames.len(), 1);
        assert!(frames[0] == push_of(vec![gossip_rumor(0, 8)]));
    }

    /// A round leaves for each peer in one `write`: the peer's frames in
    /// send order, then the round's marker. A peer with no frames, or whose
    /// only frame the topology dropped, gets the marker alone, and
    /// `end_of_round` has nothing left to write.
    #[test]
    fn a_peers_frames_of_a_round_take_one_write() {
        let (n, spec, seed) = (4, TopologySpec::churn(0.5), 5);
        let topology = Topology::build(spec, n, seed);
        let up = |r: u64, j: usize| topology.connected(Round(r), pid(0), pid(j));
        let (r, to, dropped) = (0..)
            .find_map(|r| {
                let to = (1..n).find(|&j| up(r, j))?;
                let dropped = (1..n).find(|&j| !up(r, j))?;
                Some((r, to, dropped))
            })
            .expect("a round with a link up and a link down");
        let idle = (1..n)
            .find(|&j| j != to && j != dropped)
            .expect("a third peer");
        let shots: Vec<_> = (0..5).map(|i| shoot(vec![i; 4], pid(to), n)).collect();
        let sent = shots.clone();
        let (t, bytes) = node_0_writes(n, 21400, spec, seed, move |t| {
            let mut out = SendColumns::default();
            for (i, msg) in sent.into_iter().enumerate() {
                let dst = if i % 2 == 0 { to } else { 0 }; // to, 0, to, 0, to
                out.push(pid(dst), msg.tag(), msg);
            }
            let msg = shoot(vec![9; 4], pid(dropped), n);
            out.push(pid(dropped), msg.tag(), msg);
            t.send_outbox(Round(r), pid(0), &mut out).expect("send");
            assert_eq!(t.wire_stats().writes, n as u64 - 1);
            t.end_of_round(Round(r), pid(0)).expect("marker");
            assert_eq!(t.wire_stats().writes, n as u64 - 1);
        });
        let stats = t.wire_stats();
        assert_eq!(stats.writes, n as u64 - 1);
        let total: usize = bytes.iter().map(Vec::len).sum();
        assert_eq!(stats.bytes_out, total as u64);
        assert_eq!(t.topology_drops(), 1);
        let msg = |payload: &CongosMsg| WireFrame::Msg {
            src: pid(0),
            round: r,
            payload: payload.clone(),
        };
        let want = [&shots[0], &shots[2], &shots[4]].map(msg);
        assert_eq!(
            frames_in(n, &bytes[to - 1]),
            [&want[..], &[marker(r)]].concat()
        );
        assert_eq!(frames_in(n, &bytes[dropped - 1]), [marker(r)]);
        assert_eq!(frames_in(n, &bytes[idle - 1]), [marker(r)]);
        assert_eq!(t.self_inbox.len(), 2);
    }

    /// A round whose markers went out takes no more frames: a second
    /// `send_outbox` is refused and writes nothing.
    #[test]
    fn a_send_after_the_round_closed_is_invalid_input() {
        let (t, bytes) = node_0_writes(2, 21420, TopologySpec::Complete, 0, |t| {
            for expect_closed in [false, true] {
                let mut out = SendColumns::default();
                let msg = shoot(vec![1; 4], pid(1), 2);
                out.push(pid(1), msg.tag(), msg);
                let sent = t.send_outbox(Round(0), pid(0), &mut out);
                assert_eq!(sent.is_err(), expect_closed);
                if let Err(e) = sent {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
                    assert!(e.to_string().contains("r0 is closed"), "{e}");
                }
            }
            t.end_of_round(Round(0), pid(0)).expect("marker");
        });
        assert_eq!((t.wire_stats().writes, t.messages()), (1, 1));
        let frames = frames_in(2, &bytes[0]);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1], marker(0));
    }

    /// An encode error leaves the round open: the failing peer's earlier
    /// frames go out without a marker, and `end_of_round` sends that peer
    /// its marker and the peers already closed nothing more.
    #[test]
    fn an_encode_error_leaves_the_round_open() {
        let (n, base) = (3, 21440);
        let (t, bytes) = node_0_writes(n, base, TopologySpec::Complete, 0, move |t| {
            let mut out = SendColumns::default();
            let to_p1 = shoot(vec![1; 4], pid(1), n);
            out.push(pid(1), to_p1.tag(), to_p1);
            let fits = shoot(vec![2; 4], pid(2), n);
            out.push(pid(2), fits.tag(), fits);
            let too_big = shoot(vec![3; MAX_FRAME_LEN], pid(2), n);
            out.push(pid(2), too_big.tag(), too_big);
            let err = t.send_outbox(Round(0), pid(0), &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(t.wire_stats().writes, 2);
            t.end_of_round(Round(0), pid(0)).expect("the round is open");
        });
        assert_eq!((t.wire_stats().writes, t.messages()), (3, 2));
        let shots = [1, 2].map(|j| WireFrame::Msg {
            src: pid(0),
            round: 0,
            payload: shoot(vec![j as u8; 4], pid(j), n),
        });
        assert_eq!(frames_in(n, &bytes[0]), [shots[0].clone(), marker(0)]);
        assert_eq!(frames_in(n, &bytes[1]), [shots[1].clone(), marker(0)]);
    }
}
