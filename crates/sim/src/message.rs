//! Message envelopes and service tags.

use crate::clock::Round;
use crate::process::ProcessId;
use std::fmt;

/// Labels the *service* that sent a message.
///
/// The paper meters message complexity per service — e.g. Lemma 7 bounds the
/// messages of `Proxy[ℓ]` and `GroupDistribution[ℓ]` *excluding* those sent
/// by `GroupGossip` — so every send carries a tag and the engine keeps
/// per-tag, per-round counters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub &'static str);

impl Tag {
    /// Returns the tag's name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// A point-to-point message in flight or delivered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub src: ProcessId,
    /// Receiver.
    pub dst: ProcessId,
    /// The round in which the message was sent (and, the network being
    /// synchronous, delivered).
    pub round: Round,
    /// Sending service.
    pub tag: Tag,
    /// Protocol payload.
    pub payload: M,
}

/// A borrowed view of one in-flight message — the columnar round buffers
/// store messages as struct-of-arrays, so delivered messages are read
/// through references instead of moved envelopes.
#[derive(Debug, PartialEq, Eq)]
pub struct EnvelopeRef<'a, M> {
    /// Sender.
    pub src: ProcessId,
    /// Receiver.
    pub dst: ProcessId,
    /// The round in which the message was sent (and delivered).
    pub round: Round,
    /// Sending service.
    pub tag: Tag,
    /// Protocol payload (owned by the round's outbox columns).
    pub payload: &'a M,
}

impl<M> Clone for EnvelopeRef<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for EnvelopeRef<'_, M> {}

impl<M: Clone> EnvelopeRef<'_, M> {
    /// Materializes an owned [`Envelope`] (clones the payload).
    pub fn to_envelope(&self) -> Envelope<M> {
        Envelope {
            src: self.src,
            dst: self.dst,
            round: self.round,
            tag: self.tag,
            payload: self.payload.clone(),
        }
    }
}

/// One round's merged outbox in struct-of-arrays layout.
///
/// The engine reuses one instance across rounds (`clear` keeps the column
/// capacities), so a steady-state round performs no per-envelope `Vec`
/// allocation: sends append onto the columns, and delivery hands each
/// process an *index list* into them instead of moving envelopes around.
#[derive(Debug)]
pub struct OutboxColumns<M> {
    src: Vec<ProcessId>,
    dst: Vec<ProcessId>,
    tag: Vec<Tag>,
    payload: Vec<M>,
}

impl<M> Default for OutboxColumns<M> {
    fn default() -> Self {
        OutboxColumns {
            src: Vec::new(),
            dst: Vec::new(),
            tag: Vec::new(),
            payload: Vec::new(),
        }
    }
}

impl<M> OutboxColumns<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Drops all messages, keeping the column capacities for reuse.
    pub fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.tag.clear();
        self.payload.clear();
    }

    /// Appends one message.
    pub fn push(&mut self, src: ProcessId, dst: ProcessId, tag: Tag, payload: M) {
        self.src.push(src);
        self.dst.push(dst);
        self.tag.push(tag);
        self.payload.push(payload);
    }

    /// Appends every message of `buf`, all sent by `src`, leaving `buf`
    /// empty (capacities retained). This is the pid-ordered merge step: the
    /// per-process send buffers are concatenated as index ranges of the
    /// round outbox, in process-id order.
    pub fn append_from(&mut self, src: ProcessId, buf: &mut SendColumns<M>) {
        self.src.extend(std::iter::repeat(src).take(buf.dst.len()));
        self.dst.append(&mut buf.dst);
        self.tag.append(&mut buf.tag);
        self.payload.append(&mut buf.payload);
    }

    /// Routing metadata of message `i`.
    pub fn meta(&self, i: usize) -> (ProcessId, ProcessId, Tag) {
        (self.src[i], self.dst[i], self.tag[i])
    }

    /// A borrowed view of message `i`, stamped with `round`.
    pub fn get(&self, i: usize, round: Round) -> EnvelopeRef<'_, M> {
        EnvelopeRef {
            src: self.src[i],
            dst: self.dst[i],
            round,
            tag: self.tag[i],
            payload: &self.payload[i],
        }
    }
}

/// One process's send buffer: the outbox columns minus the (constant) sender
/// id. [`Context::send`](crate::Context::send) appends to it and the round
/// transport drains it; reused across rounds.
#[derive(Debug)]
pub struct SendColumns<M> {
    dst: Vec<ProcessId>,
    tag: Vec<Tag>,
    payload: Vec<M>,
}

impl<M> Default for SendColumns<M> {
    fn default() -> Self {
        SendColumns {
            dst: Vec::new(),
            tag: Vec::new(),
            payload: Vec::new(),
        }
    }
}

impl<M> SendColumns<M> {
    /// Queues one message.
    pub fn push(&mut self, dst: ProcessId, tag: Tag, payload: M) {
        self.dst.push(dst);
        self.tag.push(tag);
        self.payload.push(payload);
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Appends one `(tag, count, bytes)` entry per run of equal tags, in
    /// send order, to `runs` — what the engine meters a process's round by.
    pub(crate) fn tag_runs(&self, size: impl Fn(&M) -> u64, runs: &mut Vec<(Tag, u64, u64)>) {
        for (&tag, payload) in self.tag.iter().zip(&self.payload) {
            let bytes = size(payload);
            match runs.last_mut() {
                Some((t, count, total)) if *t == tag => {
                    *count += 1;
                    *total += bytes;
                }
                _ => runs.push((tag, 1, bytes)),
            }
        }
    }

    /// Drains the queued messages in send order as `(dst, tag, payload)`,
    /// leaving the buffer empty with its capacity retained. This is how a
    /// non-columnar transport (e.g. a socket runtime) consumes the send
    /// phase's output.
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, Tag, M)> + '_ {
        self.dst
            .drain(..)
            .zip(self.tag.drain(..))
            .zip(self.payload.drain(..))
            .map(|((dst, tag), payload)| (dst, tag, payload))
    }
}

/// A process's inbox for one round: either an index list into the round's
/// shared [`OutboxColumns`] (the engine's zero-copy path) or a plain
/// envelope slice (for runtimes that still store owned envelopes).
///
/// Iteration yields [`EnvelopeRef`]s in delivery order.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    repr: InboxRepr<'a, M>,
}

#[derive(Debug)]
enum InboxRepr<'a, M> {
    Columnar {
        cols: &'a OutboxColumns<M>,
        idx: &'a [u32],
        round: Round,
    },
    Slice(&'a [Envelope<M>]),
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}
impl<M> Clone for InboxRepr<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for InboxRepr<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// An inbox over an index list into the round's outbox columns.
    pub fn columnar(cols: &'a OutboxColumns<M>, idx: &'a [u32], round: Round) -> Self {
        Inbox {
            repr: InboxRepr::Columnar { cols, idx, round },
        }
    }

    /// An inbox over a slice of owned envelopes.
    pub fn from_slice(envs: &'a [Envelope<M>]) -> Self {
        Inbox {
            repr: InboxRepr::Slice(envs),
        }
    }

    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        match self.repr {
            InboxRepr::Columnar { idx, .. } => idx.len(),
            InboxRepr::Slice(envs) => envs.len(),
        }
    }

    /// `true` if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th delivered message.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> EnvelopeRef<'a, M> {
        match self.repr {
            InboxRepr::Columnar { cols, idx, round } => cols.get(idx[i] as usize, round),
            InboxRepr::Slice(envs) => {
                let e = &envs[i];
                EnvelopeRef {
                    src: e.src,
                    dst: e.dst,
                    round: e.round,
                    tag: e.tag,
                    payload: &e.payload,
                }
            }
        }
    }

    /// Iterates the delivered messages in delivery order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: *self,
            next: 0,
        }
    }
}

/// Iterator over an [`Inbox`].
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    next: usize,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = EnvelopeRef<'a, M>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next < self.inbox.len() {
            let item = self.inbox.get(self.next);
            self.next += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.inbox.len() - self.next;
        (rem, Some(rem))
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = EnvelopeRef<'a, M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, M> IntoIterator for &Inbox<'a, M> {
    type Item = EnvelopeRef<'a, M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_formatting() {
        assert_eq!(format!("{}", Tag("proxy")), "proxy");
        assert_eq!(format!("{:?}", Tag("proxy")), "#proxy");
        assert_eq!(Tag("gd").name(), "gd");
    }

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope {
            src: ProcessId::new(1),
            dst: ProcessId::new(2),
            round: Round(5),
            tag: Tag("t"),
            payload: 99u32,
        };
        let f = e.clone();
        assert_eq!(e, f);
    }

    #[test]
    fn columns_round_trip_and_reuse_capacity() {
        let mut cols: OutboxColumns<u32> = OutboxColumns::new();
        let mut buf = SendColumns::default();
        buf.push(ProcessId::new(1), Tag("a"), 10);
        buf.push(ProcessId::new(2), Tag("b"), 20);
        cols.append_from(ProcessId::new(0), &mut buf);
        assert_eq!(buf.len(), 0, "append drains the send buffer");
        cols.push(ProcessId::new(3), ProcessId::new(0), Tag("c"), 30);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.meta(0), (ProcessId::new(0), ProcessId::new(1), Tag("a")));
        let e = cols.get(2, Round(7));
        assert_eq!(e.src, ProcessId::new(3));
        assert_eq!(e.round, Round(7));
        assert_eq!(*e.payload, 30);
        cols.clear();
        assert!(cols.is_empty());
    }

    #[test]
    fn columnar_inbox_iterates_index_list() {
        let mut cols: OutboxColumns<u32> = OutboxColumns::new();
        for i in 0..5u32 {
            cols.push(ProcessId::new(i as usize), ProcessId::new(0), Tag("t"), i * 11);
        }
        let idx = [1u32, 3, 4];
        let inbox = Inbox::columnar(&cols, &idx, Round(2));
        assert_eq!(inbox.len(), 3);
        let got: Vec<u32> = inbox.iter().map(|e| *e.payload).collect();
        assert_eq!(got, vec![11, 33, 44]);
        assert_eq!(inbox.get(1).src, ProcessId::new(3));
        assert_eq!(inbox.get(0).round, Round(2));
    }

    #[test]
    fn slice_inbox_matches_envelopes() {
        let envs = vec![Envelope {
            src: ProcessId::new(4),
            dst: ProcessId::new(5),
            round: Round(9),
            tag: Tag("s"),
            payload: 77u32,
        }];
        let inbox = Inbox::from_slice(&envs);
        assert_eq!(inbox.len(), 1);
        let e = inbox.get(0);
        assert_eq!(e.to_envelope(), envs[0]);
    }
}
