//! Wire framing: length-prefixed binary.
//!
//! The codec is hand-rolled (no external serialization dependency): each
//! type is written as fixed-width little-endian fields plus length-prefixed
//! sequences, with one discriminant byte per enum. The format is internal
//! to the cluster runtime — both ends run the same build — so there is no
//! versioning; a production deployment would add a version byte behind
//! [`encode_frame`] and [`Decoder`].
//!
//! A message's service tag is not on the wire: it is a function of the
//! message ([`CongosMsg::tag`]).
//!
//! Every gossip rumor is written behind its own `u32` body length, so the
//! decoder sees a rumor's exact byte span before parsing it. A gossip push
//! carries the sender's whole active set, so a node receives the same
//! rumor bytes from every peer, round after round; one [`Decoder`] per node
//! decodes each distinct rumor encoding once and serves the repeats from
//! the decoded value. The length prefixes are not counted by
//! `CongosMsg::wire_size`, which prices the protocol's payload, not this
//! framing.

use std::collections::HashMap;
use std::io;
use std::ops::AddAssign;
use std::sync::Arc;

use congos::messages::GossipLane;
use congos::{CongosMsg, CongosRumorId, FragStore, Fragment, GossipPayload, Rumor};
use congos_gossip::{GossipRumor, GossipWire, RumorId};
use congos_sim::{IdSet, ProcessId, Round};

/// A gossip rumor as it crosses the wire.
type WireRumor = GossipRumor<Arc<GossipPayload>>;

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

/// Appends one frame to `buf`: a little-endian `u32` body length followed
/// by the binary encoding.
///
/// # Errors
///
/// Rejects frames larger than [`MAX_FRAME_LEN`] (which [`Decoder::decode`]
/// would refuse anyway) with `InvalidData`, leaving `buf` as it was.
pub fn encode_frame(buf: &mut Vec<u8>, frame: &WireFrame) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    put_frame(buf, frame);
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_LEN {
        buf.truncate(start);
        return Err(bad(&format!("frame of {len} bytes exceeds MAX_FRAME_LEN")));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// What a [`Decoder`] did with the gossip rumors it met.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Rumors parsed in full: first sightings of an encoding, including
    /// those that turned out malformed.
    pub rumors_decoded: u64,
    /// Rumors served from the decoded value of an identical encoding.
    pub rumors_reused: u64,
    /// Encoded bytes of the reused rumors.
    pub bytes_reused: u64,
    /// Decoded rumors dropped after two rounds without a repeat.
    pub rumors_evicted: u64,
}

impl AddAssign for DecodeStats {
    fn add_assign(&mut self, other: DecodeStats) {
        self.rumors_decoded += other.rumors_decoded;
        self.rumors_reused += other.rumors_reused;
        self.bytes_reused += other.bytes_reused;
        self.rumors_evicted += other.rumors_evicted;
    }
}

/// Decodes the frames one node receives, written by [`encode_frame`] in a
/// cluster of `n` processes, and each distinct gossip-rumor encoding once.
///
/// **Hostile-input hardened.** The frame length prefix is capped by
/// [`MAX_FRAME_LEN`] before the body is awaited, every inner length prefix
/// is bounded by the bytes actually remaining in the frame, and every
/// element count is validated against a per-element minimum encoding size
/// before any collection is allocated. Every process id must be below `n`
/// and every id set must range over exactly `n` processes, so a decoded
/// frame can be handed to a node without further bounds checks. A gossip
/// rumor whose body does not consume its length prefix exactly is
/// malformed. Malformed input of any shape yields an `io::Error`, never a
/// panic or an unbounded allocation.
///
/// **Per-node reuse.** The decoder keeps every gossip rumor that decoded
/// cleanly, keyed by its exact encoded bytes. A rumor whose bytes it has
/// kept is not parsed again: it is a clone of the kept value, which costs
/// only reference-count bumps. Decoding is a pure function of the bytes
/// and `n`, so the clone equals what a fresh decode would return, and no
/// check is skipped. The key is the bytes, not the [`RumorId`]: a peer that
/// reuses an id with other content gets that content decoded.
///
/// **Eviction and memory bound.** Whenever the highest frame round decoded
/// so far advances, every kept rumor not met in that round or the one
/// before is dropped. What the decoder keeps is therefore bounded by the
/// distinct rumor bytes received in two rounds — a peer can grow it only
/// by sending those bytes. (`TcpTransport` fails on any frame more than
/// one round ahead of its node, so no peer can push this clock far ahead
/// and stall it while the node runs on.) The map is allocated on the first
/// rumor.
#[derive(Debug)]
pub struct Decoder {
    /// Cluster size: every process id on the wire is below it.
    n: usize,
    /// Highest frame round decoded so far.
    round: u64,
    /// Each kept rumor by its encoded body, with the last `round` at which
    /// it was decoded or reused.
    rumors: HashMap<Box<[u8]>, (WireRumor, u64)>,
    stats: DecodeStats,
}

impl Decoder {
    /// A decoder for the frames of a cluster of `n` processes, keeping no
    /// rumors yet.
    pub fn new(n: usize) -> Self {
        Decoder {
            n,
            round: 0,
            rumors: HashMap::new(),
            stats: DecodeStats::default(),
        }
    }

    /// Decodes the frame at the front of `buf`. Returns the frame and the
    /// bytes it took, or `Ok(None)` while `buf` does not yet hold a whole
    /// frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a malformed, oversized or out-of-range encoding.
    pub fn decode(&mut self, buf: &[u8]) -> io::Result<Option<(WireFrame, usize)>> {
        let Some(prefix) = buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(bad("frame length prefix exceeds MAX_FRAME_LEN"));
        }
        let Some(body) = buf.get(4..4 + len) else {
            return Ok(None);
        };
        let mut dec = Dec {
            buf: body,
            pos: 0,
            n: self.n,
        };
        let frame = self.take_frame(&mut dec)?;
        if dec.pos != body.len() {
            return Err(bad("trailing bytes in frame"));
        }
        Ok(Some((frame, 4 + len)))
    }

    /// What this decoder has done so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Notes a frame of `round`: when it is the highest yet, drops every
    /// rumor not met in it or the round before.
    fn advance(&mut self, round: u64) {
        if round <= self.round {
            return;
        }
        self.round = round;
        let kept = self.rumors.len();
        self.rumors.retain(|_, (_, seen)| *seen >= round - 1);
        self.stats.rumors_evicted += (kept - self.rumors.len()) as u64;
    }

    fn take_frame(&mut self, d: &mut Dec) -> io::Result<WireFrame> {
        let kind = d.u8()?;
        if kind > 1 {
            return Err(bad("bad WireFrame discriminant"));
        }
        let src = take_pid(d)?;
        let round = d.u64()?;
        self.advance(round);
        Ok(if kind == 0 {
            WireFrame::Msg {
                src,
                round,
                payload: self.take_msg(d)?,
            }
        } else {
            WireFrame::EndOfRound { src, round }
        })
    }

    fn take_msg(&mut self, d: &mut Dec) -> io::Result<CongosMsg> {
        match d.u8()? {
            0 => Ok(CongosMsg::Gossip {
                lane: take_lane(d)?,
                wire: Box::new(self.take_wire(d)?),
            }),
            1 => Ok(CongosMsg::ProxyRequest {
                dline: d.u64()?,
                ell: d.u16()?,
                fragments: take_fragments(d)?,
            }),
            2 => Ok(CongosMsg::ProxyAck {
                dline: d.u64()?,
                ell: d.u16()?,
            }),
            3 => Ok(CongosMsg::Partials {
                dline: d.u64()?,
                ell: d.u16()?,
                fragments: take_fragments(d)?,
            }),
            4 => Ok(CongosMsg::Shoot {
                rumor: take_rumor(d)?,
                rid: take_crid(d)?,
                direct: match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(bad("bad bool")),
                },
            }),
            _ => Err(bad("bad CongosMsg discriminant")),
        }
    }

    fn take_wire(&mut self, d: &mut Dec) -> io::Result<GossipWire<Arc<GossipPayload>>> {
        match d.u8()? {
            0 => {
                let count = d.count(min_size::GOSSIP_RUMOR)?;
                let mut rumors = Vec::with_capacity(count);
                for _ in 0..count {
                    rumors.push(self.take_gossip_rumor(d)?);
                }
                Ok(GossipWire::Push(Arc::new(rumors)))
            }
            1 => {
                let count = d.count(min_size::RID)?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(take_rid(d)?);
                }
                Ok(GossipWire::Ack(ids))
            }
            _ => Err(bad("bad GossipWire discriminant")),
        }
    }

    /// One length-prefixed gossip rumor: the kept value of an identical
    /// encoding, or a full decode that is kept if it succeeds.
    fn take_gossip_rumor(&mut self, d: &mut Dec) -> io::Result<WireRumor> {
        let span = d.bytes()?;
        if let Some((rumor, seen)) = self.rumors.get_mut(span) {
            *seen = self.round;
            self.stats.rumors_reused += 1;
            self.stats.bytes_reused += span.len() as u64;
            return Ok(rumor.clone());
        }
        self.stats.rumors_decoded += 1;
        let mut body = Dec {
            buf: span,
            pos: 0,
            n: self.n,
        };
        let rumor = take_gossip_rumor_body(&mut body)?;
        if body.pos != span.len() {
            return Err(bad("gossip rumor body shorter than its length prefix"));
        }
        self.rumors.insert(span.into(), (rumor.clone(), self.round));
        Ok(rumor)
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

// ---------------------------------------------------------------- encoding

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}
fn put_pid(buf: &mut Vec<u8>, p: ProcessId) {
    put_u32(buf, p.as_usize() as u32);
}
fn put_idset(buf: &mut Vec<u8>, s: &IdSet) {
    // Universe followed by a packed membership bitmap (LSB-first within
    // each byte) — `⌈universe/8⌉` bytes regardless of density, which
    // `Fragment::wire_size` mirrors exactly.
    put_u32(buf, s.universe() as u32);
    let start = buf.len();
    buf.resize(start + s.universe().div_ceil(8), 0);
    for p in s.iter() {
        let i = p.as_usize();
        buf[start + i / 8] |= 1 << (i % 8);
    }
}
fn put_crid(buf: &mut Vec<u8>, id: &CongosRumorId) {
    put_pid(buf, id.source);
    put_u64(buf, id.birth.0);
    put_u32(buf, id.seq);
}
fn put_rid(buf: &mut Vec<u8>, id: &RumorId) {
    put_pid(buf, id.origin);
    put_u64(buf, id.birth.0);
    put_u32(buf, id.seq);
}
fn put_fragment(buf: &mut Vec<u8>, f: &Fragment) {
    put_crid(buf, &f.rid);
    put_u64(buf, f.wid);
    put_u16(buf, f.partition);
    put_u8(buf, f.group);
    put_u8(buf, f.k);
    put_bytes(buf, &f.bytes);
    put_idset(buf, &f.dest);
    put_u64(buf, f.dline);
}
fn put_hits(buf: &mut Vec<u8>, hits: &[(ProcessId, CongosRumorId)]) {
    put_u32(buf, hits.len() as u32);
    for (p, id) in hits {
        put_pid(buf, *p);
        put_crid(buf, id);
    }
}
fn put_payload(buf: &mut Vec<u8>, p: &GossipPayload) {
    match p {
        GossipPayload::Fragments(frags) => {
            put_u8(buf, 0);
            put_u32(buf, frags.len() as u32);
            for f in frags {
                put_fragment(buf, f);
            }
        }
        GossipPayload::ProxyMeta { failed_proxies } => {
            put_u8(buf, 1);
            put_u32(buf, failed_proxies.len() as u32);
            for p in failed_proxies {
                put_pid(buf, *p);
            }
        }
        GossipPayload::GdShare { hits } => {
            put_u8(buf, 2);
            put_hits(buf, hits);
        }
        GossipPayload::Distribution {
            partition,
            group,
            hits,
        } => {
            put_u8(buf, 3);
            put_u16(buf, *partition);
            put_u8(buf, *group);
            put_hits(buf, hits);
        }
    }
}
fn put_lane(buf: &mut Vec<u8>, lane: &GossipLane) {
    match lane {
        GossipLane::Group { dline, ell } => {
            put_u8(buf, 0);
            put_u64(buf, *dline);
            put_u16(buf, *ell);
        }
        GossipLane::All { dline } => {
            put_u8(buf, 1);
            put_u64(buf, *dline);
        }
    }
}
/// A `u32` body length, then the body, so the decoder can key its reuse on
/// the rumor's exact bytes before parsing them.
fn put_gossip_rumor(buf: &mut Vec<u8>, r: &WireRumor) {
    let start = buf.len();
    put_u32(buf, 0);
    put_rid(buf, &r.id);
    put_payload(buf, &r.payload);
    put_u64(buf, r.duration);
    put_u64(buf, r.deadline.0);
    put_idset(buf, &r.dest);
    buf.push(r.best_effort as u8);
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}
fn put_wire(buf: &mut Vec<u8>, w: &GossipWire<Arc<GossipPayload>>) {
    match w {
        GossipWire::Push(rumors) => {
            put_u8(buf, 0);
            put_u32(buf, rumors.len() as u32);
            for r in rumors.iter() {
                put_gossip_rumor(buf, r);
            }
        }
        GossipWire::Ack(ids) => {
            put_u8(buf, 1);
            put_u32(buf, ids.len() as u32);
            for id in ids {
                put_rid(buf, id);
            }
        }
    }
}
fn put_rumor(buf: &mut Vec<u8>, r: &Rumor) {
    put_u64(buf, r.wid);
    put_bytes(buf, &r.data);
    put_u64(buf, r.deadline);
    put_idset(buf, &r.dest);
}
fn put_msg(buf: &mut Vec<u8>, m: &CongosMsg) {
    match m {
        CongosMsg::Gossip { lane, wire } => {
            put_u8(buf, 0);
            put_lane(buf, lane);
            put_wire(buf, wire);
        }
        CongosMsg::ProxyRequest {
            dline,
            ell,
            fragments,
        } => {
            put_u8(buf, 1);
            put_u64(buf, *dline);
            put_u16(buf, *ell);
            put_u32(buf, fragments.len() as u32);
            for f in fragments {
                put_fragment(buf, f);
            }
        }
        CongosMsg::ProxyAck { dline, ell } => {
            put_u8(buf, 2);
            put_u64(buf, *dline);
            put_u16(buf, *ell);
        }
        CongosMsg::Partials {
            dline,
            ell,
            fragments,
        } => {
            put_u8(buf, 3);
            put_u64(buf, *dline);
            put_u16(buf, *ell);
            put_u32(buf, fragments.len() as u32);
            for f in fragments {
                put_fragment(buf, f);
            }
        }
        CongosMsg::Shoot { rumor, rid, direct } => {
            put_u8(buf, 4);
            put_rumor(buf, rumor);
            put_crid(buf, rid);
            put_u8(buf, u8::from(*direct));
        }
    }
}
fn put_frame(buf: &mut Vec<u8>, f: &WireFrame) {
    match f {
        WireFrame::Msg {
            src,
            round,
            payload,
        } => {
            put_u8(buf, 0);
            put_pid(buf, *src);
            put_u64(buf, *round);
            put_msg(buf, payload);
        }
        WireFrame::EndOfRound { src, round } => {
            put_u8(buf, 1);
            put_pid(buf, *src);
            put_u64(buf, *round);
        }
    }
}

// ---------------------------------------------------------------- decoding

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Cluster size: every process id on the wire is below it.
    n: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Length prefix bounded by the remaining bytes (a corrupt length must
    /// not cause a huge allocation).
    fn len(&mut self) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(bad("length prefix exceeds frame"));
        }
        Ok(n)
    }
    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }
    /// Element count for a sequence whose elements each encode to at least
    /// `min_elem` bytes. The count is validated against the bytes actually
    /// remaining, so `Vec::with_capacity(count)` downstream is bounded by
    /// the (already capped) frame size — a hostile count cannot reserve
    /// more memory than the frame it arrived in.
    fn count(&mut self, min_elem: usize) -> io::Result<usize> {
        debug_assert!(min_elem >= 1);
        let n = self.u32()? as usize;
        let need = n
            .checked_mul(min_elem)
            .ok_or_else(|| bad("element count overflows"))?;
        if need > self.buf.len() - self.pos {
            return Err(bad("element count exceeds frame"));
        }
        Ok(n)
    }
}

/// Minimum encoded sizes (bytes) per element kind, used to validate counts
/// before allocating. Derived from the `put_*` encoders: every field is
/// fixed-width except the two inner length prefixes of a fragment, which
/// contribute at least their 4-byte prefix each.
mod min_size {
    /// pid(4) + birth(8) + seq(4).
    pub const CRID: usize = 16;
    /// Same layout as a CONGOS rumor id.
    pub const RID: usize = 16;
    /// crid + wid(8) + partition(2) + group(1) + k(1) + bytes prefix(4)
    /// + idset universe(4) + dline(8).
    pub const FRAGMENT: usize = CRID + 8 + 2 + 1 + 1 + 4 + 4 + 8;
    /// pid + crid.
    pub const HIT: usize = 4 + CRID;
    /// Bare process id.
    pub const PID: usize = 4;
    /// body length prefix(4) + rid + payload discriminant(1) +
    /// duration(8) + deadline(8) + idset universe(4) + best_effort(1); the
    /// payload body adds more.
    pub const GOSSIP_RUMOR: usize = 4 + RID + 1 + 8 + 8 + 4 + 1;
}

fn take_pid(d: &mut Dec) -> io::Result<ProcessId> {
    let id = d.u32()? as usize;
    if id >= d.n {
        return Err(bad(&format!(
            "process id {id} outside a cluster of {}",
            d.n
        )));
    }
    Ok(ProcessId::new(id))
}
fn take_idset(d: &mut Dec) -> io::Result<IdSet> {
    let universe = d.u32()? as usize;
    if universe != d.n {
        return Err(bad(&format!(
            "id set over {universe} processes in a cluster of {}",
            d.n
        )));
    }
    let packed = d.take(universe.div_ceil(8))?;
    let mut set = IdSet::empty(universe);
    for (i, &byte) in packed.iter().enumerate() {
        if byte == 0 {
            continue;
        }
        for b in 0..8 {
            if byte & (1 << b) != 0 {
                let id = i * 8 + b;
                if id >= universe {
                    return Err(bad("idset bit outside universe"));
                }
                set.insert(ProcessId::new(id));
            }
        }
    }
    Ok(set)
}
fn take_crid(d: &mut Dec) -> io::Result<CongosRumorId> {
    Ok(CongosRumorId {
        source: take_pid(d)?,
        birth: Round(d.u64()?),
        seq: d.u32()?,
    })
}
fn take_rid(d: &mut Dec) -> io::Result<RumorId> {
    Ok(RumorId {
        origin: take_pid(d)?,
        birth: Round(d.u64()?),
        seq: d.u32()?,
    })
}
fn take_fragment(d: &mut Dec) -> io::Result<Fragment> {
    // Decoded fragments re-enter the interner: fragments arriving from
    // many peers (or repeatedly, via epidemic push) collapse to one
    // allocation per distinct byte string / destination set.
    let store = FragStore::global();
    Ok(Fragment {
        rid: take_crid(d)?,
        wid: d.u64()?,
        partition: d.u16()?,
        group: d.u8()?,
        k: d.u8()?,
        bytes: store.intern_bytes(d.bytes()?),
        dest: store.intern_dest(&take_idset(d)?),
        dline: d.u64()?,
    })
}
fn take_fragments(d: &mut Dec) -> io::Result<Vec<Fragment>> {
    let count = d.count(min_size::FRAGMENT)?;
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push(take_fragment(d)?);
    }
    Ok(v)
}
fn take_hits(d: &mut Dec) -> io::Result<Vec<(ProcessId, CongosRumorId)>> {
    let count = d.count(min_size::HIT)?;
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push((take_pid(d)?, take_crid(d)?));
    }
    Ok(v)
}
fn take_payload(d: &mut Dec) -> io::Result<GossipPayload> {
    match d.u8()? {
        0 => Ok(GossipPayload::Fragments(take_fragments(d)?)),
        1 => {
            let count = d.count(min_size::PID)?;
            let mut failed_proxies = Vec::with_capacity(count);
            for _ in 0..count {
                failed_proxies.push(take_pid(d)?);
            }
            Ok(GossipPayload::ProxyMeta { failed_proxies })
        }
        2 => Ok(GossipPayload::GdShare {
            hits: take_hits(d)?,
        }),
        3 => Ok(GossipPayload::Distribution {
            partition: d.u16()?,
            group: d.u8()?,
            hits: take_hits(d)?,
        }),
        _ => Err(bad("bad GossipPayload discriminant")),
    }
}
fn take_lane(d: &mut Dec) -> io::Result<GossipLane> {
    match d.u8()? {
        0 => Ok(GossipLane::Group {
            dline: d.u64()?,
            ell: d.u16()?,
        }),
        1 => Ok(GossipLane::All { dline: d.u64()? }),
        _ => Err(bad("bad GossipLane discriminant")),
    }
}
/// The body of a gossip rumor, behind the length prefix the [`Decoder`]
/// has already taken.
fn take_gossip_rumor_body(d: &mut Dec) -> io::Result<WireRumor> {
    Ok(GossipRumor {
        id: take_rid(d)?,
        payload: Arc::new(take_payload(d)?),
        duration: d.u64()?,
        deadline: Round(d.u64()?),
        dest: Arc::new(take_idset(d)?),
        best_effort: d.u8()? != 0,
    })
}
fn take_rumor(d: &mut Dec) -> io::Result<Rumor> {
    Ok(Rumor {
        wid: d.u64()?,
        data: d.bytes()?.to_vec(),
        deadline: d.u64()?,
        dest: take_idset(d)?,
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use congos::{CongosMsg, CongosRumorId, Rumor};
    use congos_sim::{IdSet, Round};

    /// Cluster size of the test frames.
    const N: usize = 8;

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
            rumor: Rumor {
                wid: 9,
                data: vec![1, 2, 3],
                deadline: 64,
                dest: IdSet::from_iter(universe, [pid(3)]),
            },
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

    fn all_gossip(wire: congos_gossip::GossipWire<Arc<GossipPayload>>) -> WireFrame {
        msg(CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire: Box::new(wire),
        })
    }

    fn push(origin: ProcessId, payload: GossipPayload, universe: usize) -> WireFrame {
        all_gossip(GossipWire::Push(Arc::new(vec![GossipRumor {
            id: RumorId {
                origin,
                birth: Round(1),
                seq: 0,
            },
            payload: Arc::new(payload),
            duration: 8,
            deadline: Round(9),
            dest: Arc::new(IdSet::from_iter(universe, [pid(1)])),
            best_effort: false,
        }])))
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
        // The Arc-shared gossip payloads must survive the codec.
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
    fn fragment_wire_size_matches_encoder_exactly() {
        // `Fragment::wire_size` (the basis of the communication metrics)
        // must agree byte-for-byte with what the codec emits, for random
        // fragments across payload lengths, universes and densities.
        use congos::Fragment;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xF7A6);
        for trial in 0..200 {
            let len = rng.gen_range(0..96);
            let universe = rng.gen_range(1..200usize);
            let members = rng.gen_range(0..=universe);
            let dest = IdSet::from_iter(
                universe,
                (0..members).map(|_| ProcessId::new(rng.gen_range(0..universe))),
            );
            let f = Fragment {
                rid: CongosRumorId {
                    source: ProcessId::new(rng.gen_range(0..universe)),
                    birth: Round(rng.gen_range(0..1000u64)),
                    seq: rng.gen_range(0..4u32),
                },
                wid: rng.gen(),
                partition: rng.gen_range(0..8u16),
                group: rng.gen_range(0..6u8),
                k: rng.gen_range(1..7u8),
                bytes: (0..len)
                    .map(|_| rng.gen::<u8>())
                    .collect::<Vec<u8>>()
                    .into(),
                dest: dest.into(),
                dline: 64,
            };
            let mut buf = Vec::new();
            put_fragment(&mut buf, &f);
            assert_eq!(
                buf.len() as u64,
                f.wire_size(),
                "trial {trial}: encoder wrote {} bytes, wire_size says {}",
                buf.len(),
                f.wire_size()
            );
            // And the encoding round-trips through the interning decoder.
            let mut d = Dec {
                buf: &buf,
                pos: 0,
                n: universe,
            };
            let back = take_fragment(&mut d).unwrap();
            assert_eq!(d.pos, buf.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn decoded_fragments_are_interned() {
        use congos::FragBytes;
        let mut buf = Vec::new();
        put_fragment(&mut buf, &fragment(pid(1), N));
        let dec = || Dec {
            buf: &buf,
            pos: 0,
            n: N,
        };
        let a = take_fragment(&mut dec()).unwrap();
        let b = take_fragment(&mut dec()).unwrap();
        assert!(
            FragBytes::ptr_eq(&a.bytes, &b.bytes),
            "two decodes of one fragment share the byte allocation"
        );
        assert!(congos::DestRef::ptr_eq(&a.dest, &b.dest));
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
        let mut body = Vec::new();
        put_u8(&mut body, 0); // WireFrame::Msg
        put_pid(&mut body, ProcessId::new(0));
        put_u64(&mut body, 0); // round
        put_u8(&mut body, 0); // CongosMsg::Gossip
        put_u8(&mut body, 1); // GossipLane::All
        put_u64(&mut body, 64); // dline
        put_u8(&mut body, 0); // GossipWire::Push
        put_u32(&mut body, u32::MAX); // hostile rumor count
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        let err = Decoder::new(N).decode(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Same for a ProxyRequest with a hostile fragment count.
        let mut body = Vec::new();
        put_u8(&mut body, 0);
        put_pid(&mut body, ProcessId::new(1));
        put_u64(&mut body, 3);
        put_u8(&mut body, 1); // CongosMsg::ProxyRequest
        put_u64(&mut body, 64);
        put_u16(&mut body, 0);
        put_u32(&mut body, 50_000_000); // hostile fragment count
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

    fn rumor(origin: usize, seq: u32, meta: &[usize]) -> WireRumor {
        GossipRumor {
            id: RumorId {
                origin: pid(origin),
                birth: Round(1),
                seq,
            },
            payload: Arc::new(GossipPayload::ProxyMeta {
                failed_proxies: meta.iter().map(|&p| pid(p)).collect(),
            }),
            duration: 8,
            deadline: Round(9),
            dest: Arc::new(IdSet::from_iter(N, [pid(1)])),
            best_effort: false,
        }
    }

    /// A push of `rumors` from `src` in `round`.
    fn push_from(src: usize, round: u64, rumors: Vec<WireRumor>) -> WireFrame {
        WireFrame::Msg {
            src: pid(src),
            round,
            payload: CongosMsg::Gossip {
                lane: GossipLane::Group { dline: 64, ell: 1 },
                wire: Box::new(GossipWire::Push(Arc::new(rumors))),
            },
        }
    }

    /// The rumors of a decoded push.
    fn pushed(frame: &WireFrame) -> &[WireRumor] {
        match frame {
            WireFrame::Msg {
                payload: CongosMsg::Gossip { wire, .. },
                ..
            } => match wire.as_ref() {
                GossipWire::Push(rumors) => rumors,
                GossipWire::Ack(_) => panic!("not a push"),
            },
            _ => panic!("not a gossip message"),
        }
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
            let (got, used) = warm.decode(&bytes).unwrap().expect("a whole frame");
            assert_eq!(used, bytes.len());
            assert_eq!(got, decode_one(&bytes, N).unwrap(), "warm and fresh agree");
            assert_eq!(&got, frame);
            decoded.push(got);
        }
        // Every rumor is parsed once; the repeats share its allocations.
        let stats = warm.stats();
        assert_eq!(
            (stats.rumors_decoded, stats.rumors_reused),
            (3, 6),
            "{stats:?}"
        );
        assert_eq!(stats.rumors_evicted, 0);
        let first_a = &pushed(&decoded[0])[0];
        for frame in [&decoded[1], &decoded[2], &decoded[4]] {
            let again = pushed(frame).iter().find(|r| r.id == a.id).unwrap();
            assert!(Arc::ptr_eq(&first_a.payload, &again.payload));
            assert!(Arc::ptr_eq(&first_a.dest, &again.dest));
        }
    }

    #[test]
    fn a_reused_rumor_id_with_new_bytes_decodes_the_new_bytes() {
        let old = rumor(0, 0, &[2]);
        let new = rumor(0, 0, &[6]);
        assert_eq!(old.id, new.id);
        let mut dec = Decoder::new(N);
        for r in [&old, &new, &old] {
            let frame = push_from(1, 0, vec![r.clone()]);
            let (got, _) = dec.decode(&encoded(&frame)).unwrap().expect("whole");
            assert_eq!(got, frame);
        }
        assert_eq!(
            (dec.stats().rumors_decoded, dec.stats().rumors_reused),
            (2, 1)
        );
    }

    #[test]
    fn a_rumor_length_prefix_off_by_one_is_invalid_and_not_kept() {
        // Two rumors, so a span one byte too long still ends inside the
        // frame. The first rumor's length prefix follows 4 frame length +
        // 1 disc + 4 pid + 8 round + 1 msg disc + the `Group` lane (1 disc
        // + 8 dline + 2 ell) + 1 wire disc + 4 rumor count.
        let frame = push_from(1, 0, vec![rumor(0, 0, &[2]), rumor(0, 1, &[3])]);
        let bytes = encoded(&frame);
        let at = 4 + 1 + 4 + 8 + 1 + (1 + 8 + 2) + 1 + 4;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut dec = Decoder::new(N);
        for wrong in [len - 1, len + 1] {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
            let err = dec.decode(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        assert!(dec.rumors.is_empty(), "a span that failed is not kept");
        assert_eq!(dec.stats().rumors_decoded, 2);
        // The valid frame is then decoded in full, not served from a cache.
        assert_eq!(dec.decode(&bytes).unwrap().expect("whole").0, frame);
        assert_eq!(
            (dec.stats().rumors_decoded, dec.stats().rumors_reused),
            (4, 0)
        );
    }

    #[test]
    fn rumors_unseen_for_two_rounds_are_evicted() {
        let (a, b) = (rumor(0, 0, &[2]), rumor(1, 0, &[3]));
        let mut dec = Decoder::new(N);
        let mut feed = |round: u64, rumors: Vec<WireRumor>| {
            let frame = push_from(2, round, rumors);
            assert_eq!(dec.decode(&encoded(&frame)).unwrap().unwrap().0, frame);
            (dec.rumors.len(), dec.stats())
        };
        feed(1, vec![a.clone(), b.clone()]);
        // Round 2 meets only `b`; `a`, last met in round 1, stays.
        assert_eq!(feed(2, vec![b.clone()]).0, 2);
        // Round 3 drops `a` (unseen in rounds 2 and 3) and keeps `b`.
        let (kept, stats) = feed(3, vec![]);
        assert_eq!((kept, stats.rumors_evicted), (1, 1));
        // A later frame of an earlier round evicts nothing.
        assert_eq!(feed(2, vec![]).0, 1);
        // `a` comes back: decoded again; `b` is still reused.
        let (_, stats) = feed(3, vec![a.clone(), b.clone()]);
        assert_eq!((stats.rumors_decoded, stats.rumors_reused), (3, 2));
        // Two rounds later both are gone, whatever frame advanced the round.
        let end = WireFrame::EndOfRound {
            src: pid(2),
            round: 5,
        };
        dec.decode(&encoded(&end)).unwrap().unwrap();
        assert!(dec.rumors.is_empty());
        assert_eq!(dec.stats().rumors_evicted, 3);
    }
}
