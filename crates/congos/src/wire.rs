//! The wire layout of a [`CongosMsg`], described once: the writers that
//! encode it, the readers that decode it, and the count that prices it.
//!
//! Fields are fixed-width little-endian, sequences are `u32`-length
//! prefixed, and every enum leads with one discriminant byte. An id set is
//! its universe (`u32`) and a packed membership bitmap, `⌈universe/8⌉`
//! bytes, LSB-first. The service tag is not on the wire
//! ([`CongosMsg::tag`]), and there is no version: both ends run one build.
//!
//! The writers put into a [`Sink`]: a `Vec<u8>` takes the bytes, a
//! [`ByteCount`] adds them up without walking id-set members or byte
//! strings. [`encoded_len`] is what a fresh TCP encoder writes for a
//! message behind its frame header, and the simulator's byte metric
//! (`CongosNode`'s `Protocol::msg_size`). Each rumor of a gossip push
//! leads with a [`form`] byte; a definition puts the rumor's body behind
//! its own `u32` length. Which form a rumor takes is the caller's, through
//! [`PutGossipRumor`] and [`TakeGossipRumor`]: `congos-net` keeps the
//! tables behind that choice.
//!
//! Readers go through a [`Dec`]: a length prefix is bounded by the bytes
//! that remain, an element count is checked against its [`min_size`] before
//! anything is allocated, and every process id and id-set universe must
//! fit the cluster. Malformed input of any shape is an `InvalidData`
//! error, never a panic or an unbounded allocation.

use std::io;
use std::sync::Arc;

use congos_gossip::{GossipRumor, GossipWire, RumorId};
use congos_sim::{IdSet, ProcessId, Round};

use crate::messages::{CongosMsg, DestRef, FragBytes, Fragment, GossipLane, GossipPayload};
use crate::rumor::{CongosRumorId, Rumor};

/// A gossip rumor as it crosses the wire.
pub type WireRumor = GossipRumor<Arc<GossipPayload>>;

/// A `(target, rumor id)` pair of a hit-set.
type Hit = (ProcessId, CongosRumorId);

/// The form byte that leads each gossip rumor of a push.
pub mod form {
    /// A length-prefixed body the receiver keeps, bound to the sender.
    pub const KEEP: u8 = 0;
    /// A rumor id naming bytes the sender defined earlier.
    pub const REFER: u8 = 1;
    /// A length-prefixed body the receiver decodes and does not keep.
    pub const ONCE: u8 = 2;
}

/// The fewest bytes each kind of sequence element takes: a sequence's
/// element count is checked against them before anything is allocated.
/// Every field is fixed-width except a fragment's byte string and
/// destination bitmap, which take at least their 4-byte prefix each.
pub mod min_size {
    /// pid(4) + birth(8) + seq(4).
    pub const CRID: usize = 16;
    /// Same layout as a CONGOS rumor id.
    pub const RID: usize = 16;
    /// crid + wid(8) + partition(2) + group(1) + k(1) + bytes prefix(4)
    /// + id-set universe(4) + dline(8).
    pub const FRAGMENT: usize = CRID + 8 + 2 + 1 + 1 + 4 + 4 + 8;
    /// pid + crid.
    pub const HIT: usize = PID + CRID;
    /// Bare process id.
    pub const PID: usize = 4;
}

/// `InvalidData` with `msg`.
pub fn invalid_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

// ------------------------------------------------------------------ sinks

/// Where the writers put an encoding.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Appends the packed membership bitmap of `set`.
    fn put_bitmap(&mut self, set: &IdSet);
    /// The bytes appended so far.
    fn written(&self) -> usize;
    /// Overwrites the `u32` at offset `at`: a length prefix put before the
    /// bytes it counts.
    fn patch_u32(&mut self, at: usize, v: u32);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    /// Appends a little-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn put_bitmap(&mut self, set: &IdSet) {
        let start = self.len();
        self.resize(start + set.universe().div_ceil(8), 0);
        for p in set.iter() {
            let i = p.as_usize();
            self[start + i / 8] |= 1 << (i % 8);
        }
    }
    #[inline]
    fn written(&self) -> usize {
        self.len()
    }
    #[inline]
    fn patch_u32(&mut self, at: usize, v: u32) {
        self[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// Counts the bytes the writers would put, and puts none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    #[inline]
    fn put_bitmap(&mut self, set: &IdSet) {
        self.0 += set.universe().div_ceil(8);
    }
    #[inline]
    fn written(&self) -> usize {
        self.0
    }
    #[inline]
    fn patch_u32(&mut self, _: usize, _: u32) {}
}

// ---------------------------------------------------------------- writers

/// How a push writes each of its gossip rumors: a [`form`] byte and what
/// that form puts after it.
pub trait PutGossipRumor<S: Sink> {
    /// Writes `r`, pushed on `lane`.
    fn put_gossip_rumor(&mut self, out: &mut S, lane: &GossipLane, r: &WireRumor);
}

/// Every gossip rumor as a kept definition: what an encoder writes to a
/// peer it has told nothing.
pub struct DefineAll;

impl<S: Sink> PutGossipRumor<S> for DefineAll {
    fn put_gossip_rumor(&mut self, out: &mut S, _: &GossipLane, r: &WireRumor) {
        put_definition(out, form::KEEP, r);
    }
}

/// The bytes `m` takes behind its frame header, every pushed gossip rumor
/// as a kept definition.
pub fn encoded_len(m: &CongosMsg) -> u64 {
    let mut count = ByteCount::default();
    put_msg(&mut count, m, &mut DefineAll);
    count.0 as u64
}

/// A process id, as a `u32`.
pub fn put_pid<S: Sink>(out: &mut S, p: ProcessId) {
    out.put_u32(p.as_usize() as u32);
}

/// An id set: its universe, then its membership bitmap.
fn put_idset<S: Sink>(out: &mut S, s: &IdSet) {
    out.put_u32(s.universe() as u32);
    out.put_bitmap(s);
}

/// A byte string behind its `u32` length.
fn put_bytes<S: Sink>(out: &mut S, v: &[u8]) {
    out.put_u32(v.len() as u32);
    out.put(v);
}

/// A CONGOS rumor id.
pub fn put_crid<S: Sink>(out: &mut S, id: &CongosRumorId) {
    put_pid(out, id.source);
    out.put_u64(id.birth.0);
    out.put_u32(id.seq);
}

/// A gossip rumor id.
pub fn put_rid<S: Sink>(out: &mut S, id: &RumorId) {
    put_pid(out, id.origin);
    out.put_u64(id.birth.0);
    out.put_u32(id.seq);
}

/// One fragment.
pub fn put_fragment<S: Sink>(out: &mut S, f: &Fragment) {
    put_crid(out, &f.rid);
    out.put_u64(f.wid);
    out.put_u16(f.partition);
    out.put_u8(f.group);
    out.put_u8(f.k);
    put_bytes(out, &f.bytes);
    put_idset(out, &f.dest);
    out.put_u64(f.dline);
}

/// One hit of a hit-set.
pub fn put_hit<S: Sink>(out: &mut S, &(target, id): &Hit) {
    put_pid(out, target);
    put_crid(out, &id);
}

/// A sequence: its `u32` length, then each element as `put` writes it.
fn put_seq<S: Sink, T>(out: &mut S, items: &[T], mut put: impl FnMut(&mut S, &T)) {
    out.put_u32(items.len() as u32);
    for item in items {
        put(out, item);
    }
}

fn put_payload<S: Sink>(out: &mut S, p: &GossipPayload) {
    match p {
        GossipPayload::Fragments(frags) => {
            out.put_u8(0);
            put_seq(out, frags, put_fragment);
        }
        GossipPayload::ProxyMeta { failed_proxies } => {
            out.put_u8(1);
            put_seq(out, failed_proxies, |out, &p| put_pid(out, p));
        }
        GossipPayload::GdShare { hits } => {
            out.put_u8(2);
            put_seq(out, hits, put_hit);
        }
        GossipPayload::Distribution {
            partition,
            group,
            hits,
        } => {
            out.put_u8(3);
            out.put_u16(*partition);
            out.put_u8(*group);
            put_seq(out, hits, put_hit);
        }
    }
}

fn put_lane<S: Sink>(out: &mut S, lane: &GossipLane) {
    match lane {
        GossipLane::Group { dline, ell } => {
            out.put_u8(0);
            out.put_u64(*dline);
            out.put_u16(*ell);
        }
        GossipLane::All { dline } => {
            out.put_u8(1);
            out.put_u64(*dline);
        }
    }
}

/// A gossip rumor as a definition: the `form` byte, a `u32` body length,
/// then the body. Returns the body length.
pub fn put_definition<S: Sink>(out: &mut S, form: u8, r: &WireRumor) -> usize {
    out.put_u8(form);
    let at = out.written();
    out.put_u32(0);
    put_rid(out, &r.id);
    put_payload(out, &r.payload);
    out.put_u64(r.duration);
    out.put_u64(r.deadline.0);
    put_idset(out, &r.dest);
    out.put_u8(u8::from(r.best_effort));
    let len = out.written() - at - 4;
    out.patch_u32(at, len as u32);
    len
}

/// The whole rumor a `Shoot` carries.
fn put_rumor<S: Sink>(out: &mut S, r: &Rumor) {
    out.put_u64(r.wid);
    put_bytes(out, &r.data);
    out.put_u64(r.deadline);
    put_idset(out, &r.dest);
}

/// One message, each pushed gossip rumor as `rumors` writes it.
pub fn put_msg<S: Sink>(out: &mut S, m: &CongosMsg, rumors: &mut impl PutGossipRumor<S>) {
    match m {
        CongosMsg::Gossip { lane, wire } => {
            out.put_u8(0);
            put_lane(out, lane);
            match wire {
                GossipWire::Push(pushed) => {
                    out.put_u8(0);
                    put_seq(out, pushed, |out, r| rumors.put_gossip_rumor(out, lane, r));
                }
                GossipWire::Ack(ids) => {
                    out.put_u8(1);
                    put_seq(out, ids, put_rid);
                }
            }
        }
        CongosMsg::ProxyRequest {
            dline,
            ell,
            fragments,
        } => {
            out.put_u8(1);
            out.put_u64(*dline);
            out.put_u16(*ell);
            put_seq(out, fragments, put_fragment);
        }
        CongosMsg::ProxyAck { dline, ell } => {
            out.put_u8(2);
            out.put_u64(*dline);
            out.put_u16(*ell);
        }
        CongosMsg::Partials {
            dline,
            ell,
            fragments,
        } => {
            out.put_u8(3);
            out.put_u64(*dline);
            out.put_u16(*ell);
            put_seq(out, fragments, put_fragment);
        }
        CongosMsg::Shoot { rumor, rid, direct } => {
            out.put_u8(4);
            put_rumor(out, rumor);
            put_crid(out, rid);
            out.put_u8(u8::from(*direct));
        }
    }
}

// ---------------------------------------------------------------- readers

/// A reader over the bytes of one frame of a cluster of `n` processes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Cluster size: every process id on the wire is below it.
    n: usize,
}

impl<'a> Dec<'a> {
    /// A reader at the start of `buf`, for a cluster of `n` processes.
    pub fn new(buf: &'a [u8], n: usize) -> Self {
        Dec { buf, pos: 0, n }
    }

    /// Whether every byte has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid_data("truncated frame"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A byte string behind its `u32` length, which must not exceed the
    /// bytes that remain (a corrupt length must not cause a huge
    /// allocation).
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(invalid_data("length prefix exceeds frame"));
        }
        self.take(n)
    }

    /// A sequence of elements that each take at least `min_elem` bytes.
    /// Its count is checked against the bytes that remain first, so the
    /// `Vec` it reserves is bounded by the (already capped) frame size: a
    /// hostile count cannot reserve more memory than its frame.
    fn seq<T>(
        &mut self,
        min_elem: usize,
        mut take: impl FnMut(&mut Self) -> io::Result<T>,
    ) -> io::Result<Vec<T>> {
        debug_assert!(min_elem >= 1);
        let count = self.u32()? as usize;
        let need = count
            .checked_mul(min_elem)
            .ok_or_else(|| invalid_data("element count overflows"))?;
        if need > self.buf.len() - self.pos {
            return Err(invalid_data("element count exceeds frame"));
        }
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(take(self)?);
        }
        Ok(v)
    }
}

/// How a push reads each of its gossip rumors back.
pub trait TakeGossipRumor {
    /// The fewest bytes a gossip rumor takes in any form this reader
    /// accepts.
    const MIN_SIZE: usize;
    /// Reads one gossip rumor of a push on `lane`, leading [`form`] byte
    /// included.
    fn take_gossip_rumor(&mut self, d: &mut Dec<'_>, lane: GossipLane) -> io::Result<WireRumor>;
}

/// A process id, which must be below the cluster size.
pub fn take_pid(d: &mut Dec) -> io::Result<ProcessId> {
    let id = d.u32()? as usize;
    if id >= d.n {
        return Err(invalid_data(&format!(
            "process id {id} outside a cluster of {}",
            d.n
        )));
    }
    Ok(ProcessId::new(id))
}

fn take_idset(d: &mut Dec) -> io::Result<IdSet> {
    let universe = d.u32()? as usize;
    if universe != d.n {
        return Err(invalid_data(&format!(
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
                    return Err(invalid_data("idset bit outside universe"));
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

/// A gossip rumor id.
pub fn take_rid(d: &mut Dec) -> io::Result<RumorId> {
    Ok(RumorId {
        origin: take_pid(d)?,
        birth: Round(d.u64()?),
        seq: d.u32()?,
    })
}

fn take_fragment(d: &mut Dec) -> io::Result<Fragment> {
    // A decoded fragment gets its own allocations: it belongs to the node
    // that decoded it. Its clones in that node's buffers share them.
    Ok(Fragment {
        rid: take_crid(d)?,
        wid: d.u64()?,
        partition: d.u16()?,
        group: d.u8()?,
        k: d.u8()?,
        bytes: FragBytes::from(d.bytes()?),
        dest: DestRef::from(take_idset(d)?),
        dline: d.u64()?,
    })
}

fn take_fragments(d: &mut Dec) -> io::Result<Vec<Fragment>> {
    d.seq(min_size::FRAGMENT, take_fragment)
}

fn take_hits(d: &mut Dec) -> io::Result<Vec<Hit>> {
    d.seq(min_size::HIT, |d| Ok((take_pid(d)?, take_crid(d)?)))
}

fn take_payload(d: &mut Dec) -> io::Result<GossipPayload> {
    match d.u8()? {
        0 => Ok(GossipPayload::Fragments(take_fragments(d)?)),
        1 => Ok(GossipPayload::ProxyMeta {
            failed_proxies: d.seq(min_size::PID, take_pid)?,
        }),
        2 => Ok(GossipPayload::GdShare {
            hits: take_hits(d)?,
        }),
        3 => Ok(GossipPayload::Distribution {
            partition: d.u16()?,
            group: d.u8()?,
            hits: take_hits(d)?,
        }),
        _ => Err(invalid_data("bad GossipPayload discriminant")),
    }
}

fn take_lane(d: &mut Dec) -> io::Result<GossipLane> {
    match d.u8()? {
        0 => Ok(GossipLane::Group {
            dline: d.u64()?,
            ell: d.u16()?,
        }),
        1 => Ok(GossipLane::All { dline: d.u64()? }),
        _ => Err(invalid_data("bad GossipLane discriminant")),
    }
}

/// The body of a gossip rumor's definition, parsed in full: `span` is
/// exactly the bytes its length prefix names, in a cluster of `n`.
pub fn take_definition(span: &[u8], n: usize) -> io::Result<WireRumor> {
    let mut d = Dec::new(span, n);
    let rumor = GossipRumor {
        id: take_rid(&mut d)?,
        payload: Arc::new(take_payload(&mut d)?),
        duration: d.u64()?,
        deadline: Round(d.u64()?),
        dest: Arc::new(take_idset(&mut d)?),
        best_effort: d.u8()? != 0,
    };
    if !d.is_done() {
        return Err(invalid_data(
            "gossip rumor body shorter than its length prefix",
        ));
    }
    Ok(rumor)
}

fn take_rumor(d: &mut Dec) -> io::Result<Rumor> {
    Ok(Rumor {
        wid: d.u64()?,
        data: d.bytes()?.to_vec(),
        deadline: d.u64()?,
        dest: take_idset(d)?,
    })
}

/// One message, each pushed gossip rumor as `rumors` reads it.
pub fn take_msg<R: TakeGossipRumor>(d: &mut Dec, rumors: &mut R) -> io::Result<CongosMsg> {
    match d.u8()? {
        0 => {
            let lane = take_lane(d)?;
            let wire = match d.u8()? {
                0 => GossipWire::Push(Arc::new(
                    d.seq(R::MIN_SIZE, |d| rumors.take_gossip_rumor(d, lane))?,
                )),
                1 => GossipWire::Ack(d.seq(min_size::RID, take_rid)?),
                _ => return Err(invalid_data("bad GossipWire discriminant")),
            };
            Ok(CongosMsg::Gossip { lane, wire })
        }
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
            rumor: Arc::new(take_rumor(d)?),
            rid: take_crid(d)?,
            direct: match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(invalid_data("bad bool")),
            },
        }),
        _ => Err(invalid_data("bad CongosMsg discriminant")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoded_fragments_share_no_allocation() {
        let f = Fragment {
            rid: CongosRumorId {
                source: ProcessId::new(1),
                birth: Round(5),
                seq: 0,
            },
            wid: 3,
            partition: 0,
            group: 1,
            k: 2,
            bytes: vec![0xAB; 32].into(),
            dest: IdSet::from_iter(8, [ProcessId::new(4)]).into(),
            dline: 64,
        };
        let mut buf = Vec::new();
        put_fragment(&mut buf, &f);
        let decode = || {
            let mut d = Dec::new(&buf, 8);
            let back = take_fragment(&mut d).unwrap();
            assert!(d.is_done());
            back
        };
        let (a, b) = (decode(), decode());
        assert_eq!(a, f);
        assert_eq!(b, f);
        assert!(
            !FragBytes::ptr_eq(&a.bytes, &b.bytes) && !FragBytes::ptr_eq(&a.bytes, &f.bytes),
            "each decode allocates its own bytes"
        );
        assert!(!DestRef::ptr_eq(&a.dest, &b.dest) && !DestRef::ptr_eq(&a.dest, &f.dest));
    }
}
