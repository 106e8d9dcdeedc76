//! Wire framing and the per-node rumor tables of the TCP transport.
//!
//! A frame is a little-endian `u32` body length, then the body: one
//! discriminant byte, the sender's process id (`u32`) and the round
//! (`u64`) — a 17-byte header with the length — and, for a
//! [`WireFrame::Msg`], the message as [`congos::wire`] lays it out. That
//! module describes every byte of a message once, for this codec and for
//! the simulator's byte metric alike; this one adds the framing and the
//! choice of each gossip rumor's form. A production deployment would add a
//! version byte behind [`Encoder`] and [`Decoder`].
//!
//! **Gossip rumors.** A gossip push carries the sender's whole active set,
//! so the same rumor goes to the same peer round after round. Each rumor of
//! a push is written in one of three forms, named by a leading
//! [`form`] byte:
//!
//! * a *kept definition*: the rumor's body behind its own `u32` length,
//!   which the receiver decodes, keeps and binds to the sender;
//! * a *reference*: 17 bytes, the form byte and the [`RumorId`], which
//!   resolves only to bytes the same sender defined on the same lane;
//! * a *once definition*: a body the receiver decodes but does not keep.
//!
//! A rumor is named by its lane and its id. Both ends drop a rumor once the
//! round has passed its deadline: a rumor is never pushed after its
//! deadline, and a node only decodes frames of its current round or the
//! next. One [`Encoder`] per node holds the *told* table — which peer was
//! sent which rumor's bytes — and one [`Decoder`] per node holds the
//! *kept* table. A receiver keeps at most [`MAX_KEPT_BYTES_PER_PEER`] bytes
//! defined by one peer; the sender tracks the same count per peer and
//! writes a once definition where a kept one would cross it.

use std::collections::HashMap;
use std::io;
use std::ops::AddAssign;
use std::sync::Arc;

use congos::messages::GossipLane;
use congos::wire::{
    self, form, invalid_data, min_size, put_definition, put_pid, put_rid, take_definition,
    take_pid, take_rid, Dec, DefineAll, PutGossipRumor, Sink, TakeGossipRumor, WireRumor,
};
use congos::CongosMsg;
use congos_gossip::RumorId;
use congos_sim::{IdSet, ProcessId};

/// What names a gossip rumor in the told and kept tables: the lane it
/// travels on and its id there.
type RumorKey = (GossipLane, RumorId);

/// The shortest form of a gossip rumor, a reference: form byte(1) + rid.
const GOSSIP_RUMOR: usize = 1 + min_size::RID;

/// One framed unit on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum WireFrame {
    /// A protocol message for this node, sent in round `round`.
    Msg {
        /// Sending process.
        src: ProcessId,
        /// Round number.
        round: u64,
        /// The protocol payload.
        payload: CongosMsg,
    },
    /// "I have sent everything I will send in round `round`."
    EndOfRound {
        /// Sending process.
        src: ProcessId,
        /// Round number.
        round: u64,
    },
}

impl WireFrame {
    /// The sending process.
    pub fn src(&self) -> ProcessId {
        match self {
            WireFrame::Msg { src, .. } | WireFrame::EndOfRound { src, .. } => *src,
        }
    }

    /// The round the frame belongs to.
    pub fn round(&self) -> u64 {
        match self {
            WireFrame::Msg { round, .. } | WireFrame::EndOfRound { round, .. } => *round,
        }
    }
}

/// Hard cap on the body of one frame. A peer (or corrupted stream) whose
/// length prefix exceeds this is rejected with `InvalidData` *before* any
/// allocation — the decoder never trusts the wire with its memory. Far
/// above any legitimate CONGOS frame (fragments are kilobytes), far below
/// anything that could hurt the host.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Cap on the encoded rumor bytes one peer can make a [`Decoder`] keep: the
/// sum of the body lengths of the kept definitions it sent whose deadline
/// has not passed. A kept definition that would cross it is `InvalidData`;
/// an [`Encoder`] writes a once definition instead.
pub const MAX_KEPT_BYTES_PER_PEER: usize = 4 * 1024 * 1024;

/// Appends one frame to `buf`: a little-endian `u32` body length followed
/// by the binary encoding, every gossip rumor as a kept definition — what
/// an [`Encoder`] writes to a peer it has told nothing.
///
/// # Errors
///
/// Rejects frames larger than [`MAX_FRAME_LEN`] (which [`Decoder::decode`]
/// would refuse anyway) with `InvalidData`, leaving `buf` as it was.
pub fn encode_frame(buf: &mut Vec<u8>, frame: &WireFrame) -> io::Result<()> {
    put_framed(buf, frame, &mut DefineAll)
}

/// What one node's transport did on the wire. Each [`Encoder`] and
/// [`Decoder`] fills in its own fields; the transport adds the socket ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes the sockets took.
    pub bytes_out: u64,
    /// `write` calls on the sockets.
    pub writes: u64,
    /// Gossip rumors sent as a definition, kept or once.
    pub rumors_defined: u64,
    /// Gossip rumors sent as a reference.
    pub rumors_referenced: u64,
    /// Gossip rumors received and parsed in full, including those that
    /// turned out malformed.
    pub rumors_decoded: u64,
    /// Kept rumors dropped once every peer that defined them had passed
    /// their deadline.
    pub rumors_evicted: u64,
}

impl AddAssign for WireStats {
    fn add_assign(&mut self, other: WireStats) {
        self.bytes_out += other.bytes_out;
        self.writes += other.writes;
        self.rumors_defined += other.rumors_defined;
        self.rumors_referenced += other.rumors_referenced;
        self.rumors_decoded += other.rumors_decoded;
        self.rumors_evicted += other.rumors_evicted;
    }
}

/// The rumor bytes one peer has made a node keep, by deadline. Both ends of
/// a link count them from the frames on it; the receiver does not count a
/// definition of bytes it already holds from that peer, so the sender's
/// count is never below the receiver's, and a kept definition the sender
/// finds within the bound the receiver does too.
#[derive(Debug, Default)]
struct Charges {
    /// `(deadline, body length)` of each kept definition.
    held: Vec<(u64, usize)>,
    /// The sum of the lengths in `held`.
    bytes: usize,
}

impl Charges {
    fn fits(&self, len: usize) -> bool {
        self.bytes + len <= MAX_KEPT_BYTES_PER_PEER
    }

    fn charge(&mut self, deadline: u64, len: usize) {
        self.held.push((deadline, len));
        self.bytes += len;
    }

    /// Drops the charges whose deadline is before `round`; returns whether
    /// there were any.
    fn release(&mut self, round: u64) -> bool {
        let (held, bytes) = (self.held.len(), &mut self.bytes);
        self.held.retain(|&(deadline, len)| {
            let live = deadline >= round;
            if !live {
                *bytes -= len;
            }
            live
        });
        self.held.len() != held
    }
}

/// A rumor this node has sent, and the peers that were sent its bytes.
#[derive(Debug)]
struct Told {
    rumor: Arc<WireRumor>,
    peers: IdSet,
}

/// Encodes the frames one node sends in a cluster of `n` processes, each
/// gossip rumor's bytes once per peer.
///
/// The *told* table holds each rumor the node has sent some peer in a kept
/// definition, with the set of those peers. A rumor the destination was
/// told, with equal contents, is written as a reference; any other as a
/// definition — kept, and marked told, unless it would take the
/// destination past [`MAX_KEPT_BYTES_PER_PEER`] or its deadline has passed.
/// A frame that fails to encode marks nothing. Whenever a frame of a later
/// round is encoded, every rumor whose deadline is before it is dropped.
/// The encoder assumes the frames it encodes for a peer reach that peer in
/// order, and that the frames of one round are encoded together.
#[derive(Debug)]
pub struct Encoder {
    /// Cluster size.
    n: usize,
    /// Round of the latest frame encoded.
    round: u64,
    told: HashMap<RumorKey, Told>,
    /// Indexed by peer id.
    charges: Vec<Charges>,
    /// Rumors marked told while encoding the current frame.
    marked: Vec<RumorKey>,
    stats: WireStats,
}

impl Encoder {
    /// An encoder for one node of a cluster of `n` processes, which has told
    /// no peer anything yet.
    pub fn new(n: usize) -> Self {
        Encoder {
            n,
            round: 0,
            told: HashMap::new(),
            charges: (0..n).map(|_| Charges::default()).collect(),
            marked: Vec::new(),
            stats: WireStats::default(),
        }
    }

    /// Appends `frame`, bound for peer `dst`, to `buf` as [`encode_frame`]
    /// does, writing the rumors `dst` was already told as references.
    ///
    /// # Errors
    ///
    /// As [`encode_frame`]; a frame that fails leaves the told table as it
    /// was.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is outside the cluster.
    pub fn encode_frame(
        &mut self,
        buf: &mut Vec<u8>,
        frame: &WireFrame,
        dst: ProcessId,
    ) -> io::Result<()> {
        let round = frame.round();
        if round > self.round {
            self.round = round;
            self.told.retain(|_, t| t.rumor.deadline.0 >= round);
            for charges in &mut self.charges {
                charges.release(round);
            }
        }
        let stats = self.stats;
        self.marked.clear();
        let res = put_framed(buf, frame, &mut Tell { enc: self, dst });
        if res.is_err() {
            self.stats = stats;
            let charges = &mut self.charges[dst.as_usize()];
            for key in self.marked.drain(..) {
                if let Some(told) = self.told.get_mut(&key) {
                    told.peers.remove(dst);
                }
                let (_, len) = charges.held.pop().expect("one charge per mark");
                charges.bytes -= len;
            }
        }
        res
    }

    /// What this encoder has done so far: the rumors it defined and
    /// referenced.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// A kept rumor: its bytes, their decoded value (shared with every push
/// that resolves to it), and the peers that defined these bytes.
#[derive(Debug)]
struct Kept {
    bytes: Box<[u8]>,
    rumor: Arc<WireRumor>,
    definers: IdSet,
}

/// What a [`Decoder`] knows of one peer's stream.
#[derive(Debug, Default)]
struct PeerStream {
    /// The highest frame round the peer has sent.
    round: u64,
    charges: Charges,
}

/// Decodes the frames one node receives in a cluster of `n` processes,
/// written by [`encode_frame`] or an [`Encoder`], parsing each gossip
/// rumor's bytes once.
///
/// **Hostile-input hardened.** The frame length prefix is capped by
/// [`MAX_FRAME_LEN`] before the body is awaited; inside it, the message is
/// read as [`congos::wire`] reads it, so a decoded frame can be handed to a
/// node without further bounds checks.
///
/// **The kept table.** A kept definition from peer `p` binds its bytes to
/// `p` under the rumor's lane and id, and a reference from `p` resolves only
/// to the bytes `p` bound there; it is `InvalidData` if `p` bound none, or
/// none that are still kept. A kept definition with other bytes under a
/// bound key replaces them and is bound to its sender only. A definition
/// or reference whose bytes are kept resolves to the kept value itself,
/// which costs one reference-count bump; any other is parsed in full.
/// Decoding is a pure function of the bytes and `n`, so a frame decodes to
/// what a fresh decode of its definitions would return, and no check is
/// skipped.
///
/// **Retention and memory bound.** When a frame of peer `p` names a later
/// round than `p` named before, `p` is unbound from every rumor whose
/// deadline is before it, and a rumor bound to no peer is dropped; a peer's
/// rounds unbind that peer only. A peer can make the decoder keep at most
/// [`MAX_KEPT_BYTES_PER_PEER`] bytes: the body lengths of its kept
/// definitions whose deadline has not passed (a kept definition of a rumor
/// whose deadline is before its frame's round is `InvalidData`).
#[derive(Debug)]
pub struct Decoder {
    /// Cluster size: every process id on the wire is below it.
    n: usize,
    kept: HashMap<RumorKey, Kept>,
    /// Indexed by peer id.
    peers: Vec<PeerStream>,
    stats: WireStats,
}

impl Decoder {
    /// A decoder for the frames of a cluster of `n` processes, keeping no
    /// rumors yet.
    pub fn new(n: usize) -> Self {
        Decoder {
            n,
            kept: HashMap::new(),
            peers: (0..n).map(|_| PeerStream::default()).collect(),
            stats: WireStats::default(),
        }
    }

    /// Decodes the frame at the front of `buf`. Returns the frame and the
    /// bytes it took, or `Ok(None)` while `buf` does not yet hold a whole
    /// frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed, oversized or out-of-range encoding,
    /// or a gossip rumor the kept table does not allow.
    pub fn decode(&mut self, buf: &[u8]) -> io::Result<Option<(WireFrame, usize)>> {
        let Some(prefix) = buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(invalid_data("frame length prefix exceeds MAX_FRAME_LEN"));
        }
        let Some(body) = buf.get(4..4 + len) else {
            return Ok(None);
        };
        let mut dec = Dec::new(body, self.n);
        let frame = self.take_frame(&mut dec)?;
        if !dec.is_done() {
            return Err(invalid_data("trailing bytes in frame"));
        }
        Ok(Some((frame, 4 + len)))
    }

    /// What this decoder has done so far: the rumors it decoded in full and
    /// evicted.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// Notes a frame of `round` from `src`: when the round is the highest
    /// `src` has named, unbinds `src` from every rumor whose deadline is
    /// before it and drops the rumors left unbound.
    fn advance(&mut self, src: ProcessId, round: u64) {
        let peer = &mut self.peers[src.as_usize()];
        if round <= peer.round {
            return;
        }
        peer.round = round;
        // Every binding of `src` holds a charge of the same deadline.
        if !peer.charges.release(round) {
            return;
        }
        let kept = self.kept.len();
        self.kept.retain(|_, k| {
            if k.rumor.deadline.0 < round {
                k.definers.remove(src);
            }
            !k.definers.is_empty()
        });
        self.stats.rumors_evicted += (kept - self.kept.len()) as u64;
    }
    fn take_frame(&mut self, d: &mut Dec) -> io::Result<WireFrame> {
        let kind = d.u8()?;
        if kind > 1 {
            return Err(invalid_data("bad WireFrame discriminant"));
        }
        let src = take_pid(d)?;
        let round = d.u64()?;
        self.advance(src, round);
        Ok(if kind == 0 {
            WireFrame::Msg {
                src,
                round,
                payload: wire::take_msg(
                    d,
                    &mut Resolve {
                        dec: self,
                        src,
                        round,
                    },
                )?,
            }
        } else {
            WireFrame::EndOfRound { src, round }
        })
    }
}

/// A [`Decoder`]'s gossip rumors of one push from `src` in `round`.
struct Resolve<'a> {
    dec: &'a mut Decoder,
    src: ProcessId,
    round: u64,
}

impl TakeGossipRumor for Resolve<'_> {
    const MIN_SIZE: usize = GOSSIP_RUMOR;

    fn take_gossip_rumor(
        &mut self,
        d: &mut Dec<'_>,
        lane: GossipLane,
    ) -> io::Result<Arc<WireRumor>> {
        let Resolve { dec, src, round } = self;
        let (src, round) = (*src, *round);
        let keep = match d.u8()? {
            form::REFER => {
                // `advance` has unbound `src` from every rumor whose
                // deadline is before `round`.
                let id = take_rid(d)?;
                let kept = dec
                    .kept
                    .get(&(lane, id))
                    .filter(|k| k.definers.contains(src))
                    .ok_or_else(|| {
                        invalid_data(&format!(
                            "{src} refers to rumor {id:?} on {lane:?}, which it has not \
                             defined or whose deadline has passed"
                        ))
                    })?;
                return Ok(Arc::clone(&kept.rumor));
            }
            form::KEEP => true,
            form::ONCE => false,
            f => {
                return Err(invalid_data(&format!(
                    "{src} sent an unknown gossip rumor form {f}"
                )))
            }
        };
        let span = d.bytes()?;
        // The body starts with the rumor's id.
        let id = take_rid(&mut Dec::new(span, dec.n))?;
        let key = (lane, id);
        let same = dec.kept.get(&key).filter(|k| *k.bytes == *span);
        let rumor = match same {
            Some(k) => Arc::clone(&k.rumor),
            None => {
                dec.stats.rumors_decoded += 1;
                Arc::new(take_definition(span, dec.n)?)
            }
        };
        if !keep || same.is_some_and(|k| k.definers.contains(src)) {
            return Ok(rumor);
        }
        if rumor.deadline.0 < round {
            return Err(invalid_data(&format!(
                "{src} defines rumor {id:?} to be kept in round {round}, past its deadline"
            )));
        }
        let charges = &mut dec.peers[src.as_usize()].charges;
        if !charges.fits(span.len()) {
            return Err(invalid_data(&format!(
                "{src} would make this node keep more than \
                 MAX_KEPT_BYTES_PER_PEER ({MAX_KEPT_BYTES_PER_PEER}) rumor bytes"
            )));
        }
        charges.charge(rumor.deadline.0, span.len());
        match dec.kept.get_mut(&key).filter(|k| *k.bytes == *span) {
            Some(kept) => {
                kept.definers.insert(src);
            }
            None => {
                // New bytes, or other bytes than those kept: the old
                // definers lose them.
                let mut definers = IdSet::empty(dec.n);
                definers.insert(src);
                let kept = Kept {
                    bytes: span.into(),
                    rumor: Arc::clone(&rumor),
                    definers,
                };
                dec.kept.insert(key, kept);
            }
        }
        Ok(rumor)
    }
}

/// An [`Encoder`]'s gossip rumors for one frame to `dst`.
struct Tell<'a> {
    enc: &'a mut Encoder,
    dst: ProcessId,
}

impl PutGossipRumor<Vec<u8>> for Tell<'_> {
    fn put_gossip_rumor(&mut self, buf: &mut Vec<u8>, lane: &GossipLane, r: &Arc<WireRumor>) {
        let Tell { enc, dst } = self;
        let key = (*lane, r.id);
        let told = enc.told.get(&key);
        if told.is_some_and(|t| t.peers.contains(*dst) && t.rumor == *r) {
            put_reference(buf, &r.id);
            enc.stats.rumors_referenced += 1;
            return;
        }
        enc.stats.rumors_defined += 1;
        let at = buf.len();
        let len = put_definition(buf, form::KEEP, r);
        let charges = &mut enc.charges[dst.as_usize()];
        if r.deadline.0 < enc.round || !charges.fits(len) {
            buf[at] = form::ONCE;
            return;
        }
        charges.charge(r.deadline.0, len);
        let told = enc.told.entry(key).or_insert_with(|| Told {
            rumor: Arc::clone(r),
            peers: IdSet::empty(enc.n),
        });
        if told.rumor != *r {
            told.rumor = Arc::clone(r);
            told.peers.clear();
        }
        told.peers.insert(*dst);
        enc.marked.push(key);
    }
}

/// A gossip rumor as a reference to bytes defined earlier.
fn put_reference<S: Sink>(out: &mut S, id: &RumorId) {
    out.put_u8(form::REFER);
    put_rid(out, id);
}

/// Appends `f` behind its `u32` body length, or nothing if the body would
/// exceed [`MAX_FRAME_LEN`].
fn put_framed(
    buf: &mut Vec<u8>,
    f: &WireFrame,
    rumors: &mut impl PutGossipRumor<Vec<u8>>,
) -> io::Result<()> {
    let start = buf.len();
    buf.put_u32(0);
    let (kind, src, round) = match f {
        WireFrame::Msg { src, round, .. } => (0, src, round),
        WireFrame::EndOfRound { src, round } => (1, src, round),
    };
    buf.put_u8(kind);
    put_pid(buf, *src);
    buf.put_u64(*round);
    if let WireFrame::Msg { payload, .. } = f {
        wire::put_msg(buf, payload, rumors);
    }
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_LEN {
        buf.truncate(start);
        return Err(invalid_data(&format!(
            "frame of {len} bytes exceeds MAX_FRAME_LEN"
        )));
    }
    buf.patch_u32(start, len as u32);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use congos::wire::ByteCount;
    use congos::{CongosRumorId, GossipPayload, Rumor};
    use congos_gossip::{GossipRumor, GossipWire};
    use congos_sim::Round;

    /// Cluster size of the test frames.
    const N: usize = 8;

    impl Encoder {
        /// Whether peer `dst` was told the bytes of `id` on `lane`.
        pub(crate) fn told(&self, lane: GossipLane, id: RumorId, dst: ProcessId) -> bool {
            self.told
                .get(&(lane, id))
                .is_some_and(|t| t.peers.contains(dst))
        }
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn crid(source: ProcessId) -> CongosRumorId {
        CongosRumorId {
            source,
            birth: Round(5),
            seq: 0,
        }
    }

    fn encoded(frame: &WireFrame) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(&mut buf, frame).unwrap();
        buf
    }

    /// Decodes a buffer holding exactly one frame.
    fn decode_one(buf: &[u8], n: usize) -> io::Result<WireFrame> {
        let (frame, used) = Decoder::new(n).decode(buf)?.expect("a whole frame");
        assert_eq!(used, buf.len(), "the frame spans the buffer");
        Ok(frame)
    }

    fn msg(payload: CongosMsg) -> WireFrame {
        WireFrame::Msg {
            src: pid(1),
            round: 7,
            payload,
        }
    }

    fn shoot(source: ProcessId, universe: usize) -> CongosMsg {
        CongosMsg::Shoot {
            rumor: Arc::new(Rumor {
                wid: 9,
                data: vec![1, 2, 3],
                deadline: 64,
                dest: IdSet::from_iter(universe, [pid(3)]),
            }),
            rid: crid(source),
            direct: false,
        }
    }

    fn fragment(source: ProcessId, universe: usize) -> congos::Fragment {
        congos::Fragment {
            rid: crid(source),
            wid: 3,
            partition: 0,
            group: 1,
            k: 2,
            bytes: vec![0xAB; 32].into(),
            dest: IdSet::from_iter(universe, [pid(4)]).into(),
            dline: 64,
        }
    }

    fn all_gossip(wire: congos_gossip::GossipWire<GossipPayload>) -> WireFrame {
        msg(CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire,
        })
    }

    fn push(origin: ProcessId, payload: GossipPayload, universe: usize) -> WireFrame {
        all_gossip(GossipWire::Push(Arc::new(
            vec![GossipRumor {
                id: RumorId {
                    origin,
                    birth: Round(1),
                    seq: 0,
                },
                payload,
                duration: 8,
                deadline: Round(9),
                dest: IdSet::from_iter(universe, [pid(1)]),
                best_effort: false,
            }]
            .into(),
        )))
    }

    #[test]
    fn frame_round_trip() {
        let frame = msg(shoot(pid(0), N));
        assert_eq!(decode_one(&encoded(&frame), N).unwrap(), frame);
    }

    #[test]
    fn eor_round_trip_and_stream() {
        let mut buf = Vec::new();
        for r in 0..3u64 {
            encode_frame(
                &mut buf,
                &WireFrame::EndOfRound {
                    src: pid(2),
                    round: r,
                },
            )
            .unwrap();
        }
        let mut dec = Decoder::new(N);
        let mut rest = &buf[..];
        for r in 0..3u64 {
            let (frame, used) = dec.decode(rest).unwrap().expect("whole frame");
            assert_eq!(
                frame,
                WireFrame::EndOfRound {
                    src: pid(2),
                    round: r
                }
            );
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
        assert!(dec.decode(rest).unwrap().is_none(), "no frame in no bytes");
    }

    #[test]
    fn gossip_wire_serializes_through_arc() {
        // The Arc-shared gossip rumors must survive the codec.
        let frame = push(
            pid(0),
            GossipPayload::ProxyMeta {
                failed_proxies: vec![pid(3)],
            },
            N,
        );
        assert_eq!(decode_one(&encoded(&frame), N).unwrap(), frame);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        // Bad discriminant.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[9u8, 0]);
        assert!(Decoder::new(N).decode(&buf).is_err());
        // A body shorter than its length prefix is an incomplete frame…
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 5]);
        assert!(Decoder::new(N).decode(&buf).unwrap().is_none());
        // …but a whole body that ends mid-field is malformed.
        let whole = encoded(&msg(shoot(pid(0), N)));
        let mut cut = whole[..whole.len() - 3].to_vec();
        let body_len = cut.len() as u32 - 4;
        cut[..4].copy_from_slice(&body_len.to_le_bytes());
        assert!(Decoder::new(N).decode(&cut).is_err());
        // Inner length prefix pointing past the frame end (offset: 4 frame
        // len + 1 disc + 4 pid + 8 round + 1 msg disc + 8 wid → the rumor
        // data length).
        let mut buf = whole;
        buf[29] = 0xFF;
        assert!(Decoder::new(N).decode(&buf).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        // A hostile 4 GiB length prefix must be refused up front — if the
        // decoder waited for (or allocated) the claimed body, a peer could
        // pin the host's memory.
        let buf = u32::MAX.to_le_bytes();
        let err = Decoder::new(N).decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_FRAME_LEN"), "{err}");
        // Just over the cap is refused too.
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        assert!(Decoder::new(N).decode(&buf).is_err());
    }

    #[test]
    fn hostile_element_count_rejected_before_allocation() {
        // A Gossip/Push frame claiming u32::MAX rumors in a tiny body must
        // fail the count-vs-remaining-bytes check, not reserve gigabytes.
        let mut body: Vec<u8> = Vec::new();
        body.put_u8(0); // WireFrame::Msg
        put_pid(&mut body, ProcessId::new(0));
        body.put_u64(0); // round
        body.put_u8(0); // CongosMsg::Gossip
        body.put_u8(1); // GossipLane::All
        body.put_u64(64); // dline
        body.put_u8(0); // GossipWire::Push
        body.put_u32(u32::MAX); // hostile rumor count
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let err = Decoder::new(N).decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Same for a ProxyRequest with a hostile fragment count.
        let mut body: Vec<u8> = Vec::new();
        body.put_u8(0);
        put_pid(&mut body, ProcessId::new(1));
        body.put_u64(3);
        body.put_u8(1); // CongosMsg::ProxyRequest
        body.put_u64(64);
        body.put_u16(0);
        body.put_u32(50_000_000); // hostile fragment count
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(Decoder::new(N).decode(&buf).is_err());
    }

    #[test]
    fn encode_rejects_oversized_frame() {
        // A fragment with a payload bigger than MAX_FRAME_LEN cannot be
        // framed (one rumor's fragments are ~|rumor|/g bytes, so this only
        // triggers on absurd inputs — but the check keeps encode and decode
        // symmetric).
        let mut f = fragment(pid(0), N);
        f.bytes = vec![0u8; MAX_FRAME_LEN + 1].into();
        let frame = msg(CongosMsg::Partials {
            dline: 64,
            ell: 0,
            fragments: vec![f],
        });
        let mut sink = vec![7u8];
        let err = encode_frame(&mut sink, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(sink, [7], "the buffer is left as it was");
    }

    /// `frame(p)` carries the process id `p` in one position: it must decode
    /// at `p = N − 1` and be refused as `InvalidData` at `p = N`, the first
    /// id a node of an `N`-node cluster cannot index.
    fn check_id_position(frame: impl Fn(ProcessId) -> WireFrame) {
        let last = frame(pid(N - 1));
        assert_eq!(decode_one(&encoded(&last), N).unwrap(), last);
        let err = Decoder::new(N)
            .decode(&encoded(&frame(pid(N))))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn frame_src_must_fit_the_cluster() {
        check_id_position(|src| WireFrame::EndOfRound { src, round: 0 });
        check_id_position(|src| WireFrame::Msg {
            src,
            round: 0,
            payload: CongosMsg::ProxyAck { dline: 64, ell: 0 },
        });
    }

    #[test]
    fn gossip_rumor_origin_must_fit_the_cluster() {
        check_id_position(|origin| {
            push(
                origin,
                GossipPayload::Distribution {
                    partition: 0,
                    group: 0,
                    hits: vec![],
                },
                N,
            )
        });
    }

    #[test]
    fn acked_rumor_origin_must_fit_the_cluster() {
        check_id_position(|origin| {
            all_gossip(GossipWire::Ack(vec![RumorId {
                origin,
                birth: Round(1),
                seq: 0,
            }]))
        });
    }

    #[test]
    fn fragment_source_must_fit_the_cluster() {
        check_id_position(|source| {
            msg(CongosMsg::ProxyRequest {
                dline: 64,
                ell: 0,
                fragments: vec![fragment(source, N)],
            })
        });
    }

    #[test]
    fn shot_rumor_source_must_fit_the_cluster() {
        check_id_position(|source| msg(shoot(source, N)));
    }

    #[test]
    fn hit_target_must_fit_the_cluster() {
        check_id_position(|target| {
            push(
                pid(0),
                GossipPayload::GdShare {
                    hits: vec![(target, crid(pid(0)))],
                },
                N,
            )
        });
    }

    #[test]
    fn hit_rumor_source_must_fit_the_cluster() {
        check_id_position(|source| {
            push(
                pid(0),
                GossipPayload::Distribution {
                    partition: 1,
                    group: 0,
                    hits: vec![(pid(2), crid(source))],
                },
                N,
            )
        });
    }

    #[test]
    fn failed_proxy_must_fit_the_cluster() {
        check_id_position(|p| {
            push(
                pid(0),
                GossipPayload::ProxyMeta {
                    failed_proxies: vec![p],
                },
                N,
            )
        });
    }

    #[test]
    fn id_sets_must_range_over_the_cluster() {
        let meta = || GossipPayload::ProxyMeta {
            failed_proxies: vec![],
        };
        let frames: [&dyn Fn(usize) -> WireFrame; 3] = [
            &|u| msg(shoot(pid(0), u)),
            &|u| {
                msg(CongosMsg::Partials {
                    dline: 64,
                    ell: 0,
                    fragments: vec![fragment(pid(0), u)],
                })
            },
            &|u| push(pid(0), meta(), u),
        ];
        for frame in frames {
            assert!(decode_one(&encoded(&frame(N)), N).is_ok());
            for universe in [N - 1, N + 1] {
                let err = Decoder::new(N)
                    .decode(&encoded(&frame(universe)))
                    .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            }
        }
    }

    /// A rumor over the test cluster whose deadline is round 9.
    fn rumor(origin: usize, seq: u32, meta: &[usize]) -> WireRumor {
        rumor_until(N, origin, seq, meta, 9)
    }

    /// A rumor over `universe` processes whose deadline is `deadline`.
    fn rumor_until(
        universe: usize,
        origin: usize,
        seq: u32,
        meta: &[usize],
        deadline: u64,
    ) -> WireRumor {
        GossipRumor {
            id: RumorId {
                origin: pid(origin),
                birth: Round(1),
                seq,
            },
            payload: GossipPayload::ProxyMeta {
                failed_proxies: meta.iter().map(|&p| pid(p)).collect(),
            },
            duration: 8,
            deadline: Round(deadline),
            dest: IdSet::from_iter(universe, [pid(1)]),
            best_effort: false,
        }
    }

    /// A rumor carrying one fragment of `len` bytes.
    fn rumor_of_size(seq: u32, len: usize, deadline: u64) -> WireRumor {
        let mut r = rumor_until(N, 0, seq, &[], deadline);
        r.payload = GossipPayload::Fragments(vec![congos::Fragment {
            bytes: vec![seq as u8; len].into(),
            ..fragment(pid(0), N)
        }]);
        r
    }

    /// The lane of every test push.
    const LANE: GossipLane = GossipLane::Group { dline: 64, ell: 1 };

    /// A push of `rumors` from `src` in `round`.
    fn push_from(src: usize, round: u64, rumors: Vec<WireRumor>) -> WireFrame {
        WireFrame::Msg {
            src: pid(src),
            round,
            payload: CongosMsg::Gossip {
                lane: LANE,
                wire: GossipWire::Push(Arc::new(rumors.into())),
            },
        }
    }

    /// The rumors of a decoded push, whose id column is checked against
    /// them.
    fn pushed(frame: &WireFrame) -> &[Arc<WireRumor>] {
        match frame {
            WireFrame::Msg {
                payload: CongosMsg::Gossip { wire, .. },
                ..
            } => match wire {
                GossipWire::Push(batch) => {
                    let ids: Vec<_> = batch.rumors().iter().map(|r| r.id).collect();
                    assert_eq!(batch.ids(), ids, "the id column follows the rumors");
                    batch.rumors()
                }
                GossipWire::Ack(_) => panic!("not a push"),
            },
            _ => panic!("not a gossip message"),
        }
    }

    /// `frame` as its sender's `enc` writes it for node 0.
    fn told(enc: &mut Encoder, frame: &WireFrame) -> Vec<u8> {
        let mut buf = Vec::new();
        enc.encode_frame(&mut buf, frame, pid(0)).unwrap();
        buf
    }

    /// Decodes a buffer holding exactly one frame with `dec`.
    fn decode_with(dec: &mut Decoder, bytes: &[u8]) -> io::Result<WireFrame> {
        let (frame, used) = dec.decode(bytes)?.expect("a whole frame");
        assert_eq!(used, bytes.len(), "the frame spans the buffer");
        Ok(frame)
    }

    /// Asserts that `res` is `InvalidData` naming peer `p`.
    fn assert_refused<T: std::fmt::Debug>(res: io::Result<T>, p: usize) {
        let err = res.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(&format!("p{p} ")), "{err}");
    }

    #[test]
    fn a_reference_is_the_shortest_gossip_rumor() {
        let mut count = ByteCount::default();
        put_reference(&mut count, &rumor(0, 0, &[]).id);
        assert_eq!(count.0, GOSSIP_RUMOR);
        let mut count = ByteCount::default();
        let body = put_definition(&mut count, form::KEEP, &rumor(0, 0, &[]));
        assert!(count.0 > GOSSIP_RUMOR && body + 5 == count.0);
    }

    #[test]
    fn a_warm_decoder_decodes_a_stream_as_fresh_decoders_do() {
        let (a, b, c) = (rumor(0, 0, &[2]), rumor(3, 1, &[]), rumor(0, 2, &[4, 5]));
        let frames = [
            push_from(1, 0, vec![a.clone(), b.clone()]),
            push_from(2, 0, vec![a.clone()]), // the same rumor from a second sender
            push_from(1, 0, vec![a.clone(), a.clone()]), // repeated within a frame
            WireFrame::EndOfRound {
                src: pid(1),
                round: 0,
            },
            push_from(1, 1, vec![c.clone(), a.clone(), b.clone()]),
            WireFrame::Msg {
                src: pid(2),
                round: 1,
                payload: shoot(pid(2), N),
            },
            push_from(3, 1, vec![b.clone()]),
        ];
        let mut warm = Decoder::new(N);
        let mut decoded = Vec::new();
        for frame in &frames {
            let bytes = encoded(frame);
            let got = decode_with(&mut warm, &bytes).unwrap();
            assert_eq!(got, decode_one(&bytes, N).unwrap(), "warm and fresh agree");
            assert_eq!(&got, frame);
            decoded.push(got);
        }
        // Every rumor is parsed once; each repeat is the kept rumor.
        let stats = warm.stats();
        assert_eq!(
            (stats.rumors_decoded, stats.rumors_evicted),
            (3, 0),
            "{stats:?}"
        );
        let first_a = &pushed(&decoded[0])[0];
        for frame in [&decoded[1], &decoded[2], &decoded[4]] {
            let again = pushed(frame).iter().find(|r| r.id == a.id).unwrap();
            assert!(Arc::ptr_eq(first_a, again));
        }
    }

    #[test]
    fn an_encoder_sends_each_peer_a_rumors_bytes_once() {
        let (a, b, c) = (rumor(0, 0, &[2]), rumor(3, 1, &[]), rumor(0, 2, &[4, 5]));
        let mut senders = [Encoder::new(N), Encoder::new(N)];
        let frames = [
            (0, push_from(1, 0, vec![a.clone(), b.clone()])),
            (1, push_from(2, 0, vec![a.clone()])),
            (0, push_from(1, 0, vec![a.clone(), a.clone(), c.clone()])),
            (0, push_from(1, 1, vec![c, a, b])),
        ];
        let mut dec = Decoder::new(N);
        let mut sizes = Vec::new();
        for (sender, frame) in &frames {
            let bytes = told(&mut senders[*sender], frame);
            assert_eq!(&decode_with(&mut dec, &bytes).unwrap(), frame);
            sizes.push(bytes.len());
        }
        let stats = |enc: &Encoder| (enc.stats().rumors_defined, enc.stats().rumors_referenced);
        assert_eq!(stats(&senders[0]), (3, 5));
        assert_eq!(stats(&senders[1]), (1, 0));
        // p2's definition of `a` is p1's bytes: kept, not parsed again.
        assert_eq!(dec.stats().rumors_decoded, 3);
        // Three references: the push's header and 17 bytes each.
        let header = 4 + 1 + 4 + 8 + 1 + (1 + 8 + 2) + 1 + 4;
        assert_eq!(sizes[3], header + 3 * 17);
    }

    #[test]
    fn a_reused_rumor_id_with_new_bytes_decodes_the_new_bytes() {
        let old = rumor(0, 0, &[2]);
        let new = rumor(0, 0, &[6]);
        assert_eq!(old.id, new.id);
        let mut sender = Encoder::new(N);
        let mut dec = Decoder::new(N);
        for r in [&old, &new, &old] {
            let frame = push_from(1, 0, vec![r.clone()]);
            assert_eq!(decode_with(&mut dec, &encoded(&frame)).unwrap(), frame);
            // An encoder defines changed contents again.
            assert_eq!(
                decode_with(&mut dec, &told(&mut sender, &frame)).unwrap(),
                frame
            );
        }
        assert_eq!(dec.stats().rumors_decoded, 3);
        assert_eq!(sender.stats().rumors_defined, 3);
    }

    #[test]
    fn a_rumor_length_prefix_off_by_one_is_invalid_and_not_kept() {
        // Two rumors, so a span one byte too long still ends inside the
        // frame. The first rumor's length prefix follows 4 frame length +
        // 1 disc + 4 pid + 8 round + 1 msg disc + the `Group` lane (1 disc
        // + 8 dline + 2 ell) + 1 wire disc + 4 rumor count + 1 form.
        let frame = push_from(1, 0, vec![rumor(0, 0, &[2]), rumor(0, 1, &[3])]);
        let bytes = encoded(&frame);
        let at = 4 + 1 + 4 + 8 + 1 + (1 + 8 + 2) + 1 + 4 + 1;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut dec = Decoder::new(N);
        for wrong in [len - 1, len + 1] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
            let err = dec.decode(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        assert!(dec.kept.is_empty(), "a span that failed is not kept");
        assert_eq!(dec.stats().rumors_decoded, 2);
        // The valid frame is then decoded in full, not served from a cache.
        assert_eq!(decode_with(&mut dec, &bytes).unwrap(), frame);
        assert_eq!(dec.stats().rumors_decoded, 4);
    }

    #[test]
    fn kept_rumors_are_dropped_once_every_definer_passed_their_deadline() {
        let (a, b) = (rumor_until(N, 0, 0, &[2], 3), rumor_until(N, 1, 0, &[3], 5));
        let mut dec = Decoder::new(N);
        let mut feed = |src: usize, round: u64, rumors: Vec<WireRumor>| {
            let frame = push_from(src, round, rumors);
            assert_eq!(decode_with(&mut dec, &encoded(&frame)).unwrap(), frame);
            (dec.kept.len(), dec.stats().rumors_evicted)
        };
        feed(1, 2, vec![a.clone(), b.clone()]);
        feed(2, 3, vec![a.clone()]);
        // p1 passes `a`'s deadline; p2, in round 3, still holds it.
        assert_eq!(feed(1, 4, vec![]), (2, 0));
        // A frame of an earlier round unbinds nothing.
        assert_eq!(feed(2, 3, vec![]), (2, 0));
        // p2 passes it too: `a` is dropped, `b` (deadline 5) stays.
        assert_eq!(feed(2, 4, vec![]), (1, 1));
        // A round marker moves its sender's round as well.
        let end = WireFrame::EndOfRound {
            src: pid(1),
            round: 6,
        };
        decode_with(&mut dec, &encoded(&end)).unwrap();
        assert!(dec.kept.is_empty());
        assert_eq!(dec.stats().rumors_evicted, 2);
        assert!(dec.peers[1].charges.held.is_empty());
        assert_eq!(dec.peers[1].charges.bytes, 0);
    }

    #[test]
    fn an_encoder_forgets_what_it_told_once_the_deadline_passed() {
        let a = rumor_until(N, 0, 0, &[2], 3);
        let mut sender = Encoder::new(N);
        let frame = |round| push_from(1, round, vec![a.clone()]);
        told(&mut sender, &frame(3));
        assert!(sender.told(LANE, a.id, pid(0)));
        // In round 4 the rumor is no longer told, and a push of it would be
        // a once definition.
        let mut dec = Decoder::new(N);
        assert_eq!(
            decode_with(&mut dec, &told(&mut sender, &frame(4))).unwrap(),
            frame(4)
        );
        assert!(!sender.told(LANE, a.id, pid(0)));
        assert!(sender.told.is_empty() && dec.kept.is_empty());
        assert_eq!(sender.charges[0].bytes, 0);
    }

    #[test]
    fn a_reference_to_a_rumor_the_peer_never_defined_is_refused() {
        let a = rumor(0, 0, &[2]);
        let mut sender = Encoder::new(N);
        told(&mut sender, &push_from(1, 0, vec![a.clone()])); // never arrives
        let reference = told(&mut sender, &push_from(1, 0, vec![a]));
        assert_refused(Decoder::new(N).decode(&reference), 1);
    }

    #[test]
    fn a_reference_to_a_rumor_only_another_peer_defined_is_refused() {
        let a = rumor(0, 0, &[2]);
        let mut dec = Decoder::new(N);
        let mut p2 = Encoder::new(N);
        let frame = push_from(2, 0, vec![a.clone()]);
        decode_with(&mut dec, &told(&mut p2, &frame)).unwrap();
        let mut p1 = Encoder::new(N);
        told(&mut p1, &push_from(1, 0, vec![a.clone()])); // never arrives
        assert_refused(dec.decode(&told(&mut p1, &push_from(1, 0, vec![a]))), 1);
        // p2's own reference resolves.
        assert_eq!(
            decode_with(&mut dec, &told(&mut p2, &frame)).unwrap(),
            frame
        );
    }

    #[test]
    fn a_rumor_past_its_deadline_is_refused_by_reference_and_kept_definition() {
        let a = rumor(0, 0, &[2]); // deadline 9
        let mut sender = Encoder::new(N);
        let mut dec = Decoder::new(N);
        decode_with(
            &mut dec,
            &told(&mut sender, &push_from(1, 9, vec![a.clone()])),
        )
        .unwrap();
        // A reference in round 9, moved to round 10 (bytes 9..17 of a frame).
        let mut late = told(&mut sender, &push_from(1, 9, vec![a.clone()]));
        late[9..17].copy_from_slice(&10u64.to_le_bytes());
        assert_refused(dec.decode(&late), 1);
        // A kept definition in round 10 is refused too…
        let frame = push_from(1, 10, vec![a]);
        assert_refused(Decoder::new(N).decode(&encoded(&frame)), 1);
        // …so an encoder sends it once, and the receiver keeps nothing.
        let mut dec = Decoder::new(N);
        assert_eq!(
            decode_with(&mut dec, &told(&mut sender, &frame)).unwrap(),
            frame
        );
        assert!(dec.kept.is_empty());
    }

    #[test]
    fn a_second_definition_with_other_bytes_binds_to_its_sender_only() {
        let (old, new) = (rumor(0, 0, &[2]), rumor(0, 0, &[6]));
        let (mut p1, mut p2) = (Encoder::new(N), Encoder::new(N));
        let mut dec = Decoder::new(N);
        let mut feed = |enc: &mut Encoder, src: usize, r: &WireRumor| {
            let frame = push_from(src, 0, vec![r.clone()]);
            decode_with(&mut dec, &told(enc, &frame)).map(|got| assert_eq!(got, frame))
        };
        feed(&mut p1, 1, &old).unwrap();
        feed(&mut p2, 2, &new).unwrap(); // the new bytes decode…
        feed(&mut p2, 2, &new).unwrap(); // …and p2 may refer to them…
        assert_refused(feed(&mut p1, 1, &old), 1); // …but p1 may not.
        assert_eq!(dec.stats().rumors_decoded, 2);
    }

    #[test]
    fn a_peer_cannot_make_a_node_keep_more_than_the_bound() {
        // Two rumors, each a little over half the bound.
        let half = MAX_KEPT_BYTES_PER_PEER / 2;
        let (a, b) = (rumor_of_size(0, half, 9), rumor_of_size(1, half, 20));
        let mut dec = Decoder::new(N);
        decode_with(&mut dec, &encoded(&push_from(1, 0, vec![a.clone()]))).unwrap();
        assert_refused(dec.decode(&encoded(&push_from(1, 0, vec![b.clone()]))), 1);
        // Each peer has a bound of its own…
        decode_with(&mut dec, &encoded(&push_from(2, 0, vec![b.clone()]))).unwrap();
        // …and what a peer kept stops counting at the rumor's deadline.
        decode_with(&mut dec, &encoded(&push_from(1, 10, vec![b.clone()]))).unwrap();

        // An encoder sends what would cross the bound once, unkept, and
        // defines it again in the next push.
        let mut sender = Encoder::new(N);
        let mut dec = Decoder::new(N);
        let frame = push_from(1, 0, vec![a.clone(), b.clone()]);
        for _ in 0..2 {
            assert_eq!(
                decode_with(&mut dec, &told(&mut sender, &frame)).unwrap(),
                frame
            );
            assert!(sender.told(LANE, a.id, pid(0)) && !sender.told(LANE, b.id, pid(0)));
            assert_eq!(dec.kept.len(), 1);
        }
        let stats = sender.stats();
        assert_eq!((stats.rumors_defined, stats.rumors_referenced), (3, 1));
    }

    #[test]
    fn a_bad_form_byte_is_refused() {
        let frame = push_from(1, 0, vec![rumor(0, 0, &[2])]);
        let bytes = encoded(&frame);
        let at = 4 + 1 + 4 + 8 + 1 + (1 + 8 + 2) + 1 + 4;
        assert_eq!(bytes[at], form::KEEP);
        for f in 3..=u8::MAX {
            let mut bad = bytes.clone();
            bad[at] = f;
            assert_refused(Decoder::new(N).decode(&bad), 1);
        }
        // A once definition decodes the same rumor and keeps nothing.
        let mut once = bytes;
        once[at] = form::ONCE;
        let mut dec = Decoder::new(N);
        assert_eq!(decode_with(&mut dec, &once).unwrap(), frame);
        assert!(dec.kept.is_empty());
    }

    #[test]
    fn a_frame_that_fails_to_encode_marks_nothing() {
        let small = rumor(0, 0, &[2]);
        let huge = rumor_of_size(1, MAX_FRAME_LEN, 9);
        let mut sender = Encoder::new(N);
        let mut sink = vec![7u8];
        let err = sender
            .encode_frame(
                &mut sink,
                &push_from(1, 0, vec![small.clone(), huge]),
                pid(0),
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(sink, [7], "the buffer is left as it was");
        assert!(!sender.told(LANE, small.id, pid(0)));
        assert_eq!(sender.stats(), WireStats::default());
        assert_eq!(sender.charges[0].bytes, 0);
        // So the next push defines the rumor.
        let frame = push_from(1, 0, vec![small]);
        let bytes = told(&mut sender, &frame);
        assert_eq!(decode_with(&mut Decoder::new(N), &bytes).unwrap(), frame);
    }

    #[test]
    fn the_tables_hold_peers_past_64() {
        let n = 130;
        let a = rumor_until(n, 3, 0, &[], 9);
        let mut dec = Decoder::new(n);
        for src in [64, 100, 129] {
            let mut sender = Encoder::new(n);
            for round in [0, 1] {
                let frame = push_from(src, round, vec![a.clone()]);
                assert_eq!(
                    decode_with(&mut dec, &told(&mut sender, &frame)).unwrap(),
                    frame
                );
            }
            assert_eq!(sender.stats().rumors_referenced, 1);
            let mut buf = Vec::new();
            sender
                .encode_frame(&mut buf, &push_from(src, 1, vec![a.clone()]), pid(127))
                .unwrap();
            assert!(sender.told(LANE, a.id, pid(127)) && !sender.told(LANE, a.id, pid(63)));
        }
        let definers: Vec<_> = dec.kept[&(LANE, a.id)].definers.iter().collect();
        assert_eq!(definers, [pid(64), pid(100), pid(129)]);
        let mut stranger = Encoder::new(n);
        told(&mut stranger, &push_from(65, 1, vec![a.clone()])); // never arrives
        assert_refused(
            dec.decode(&told(&mut stranger, &push_from(65, 1, vec![a]))),
            65,
        );
    }
}
