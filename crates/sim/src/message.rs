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

/// Metadata of one queued message, visible to the adaptive adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutboxMeta {
    /// Sender.
    pub src: ProcessId,
    /// Receiver.
    pub dst: ProcessId,
    /// Sending service.
    pub tag: Tag,
}

/// The index of the next payload slot of a buffer holding `slots`.
fn slot_index(slots: usize) -> u32 {
    u32::try_from(slots).expect("a round's payload slots fit in u32")
}

/// One round's merged outbox in struct-of-arrays layout.
///
/// Every message is a row of `(src, dst, slot)`; its payload slot holds the
/// payload and its tag once, however many messages carry it (one send to
/// many targets, see [`SendColumns::push_each`]). The engine reuses one
/// instance across rounds (`clear` keeps the column capacities), so a
/// steady-state round performs no per-envelope `Vec` allocation: sends
/// append onto the columns, and delivery hands each process an *index
/// list* into them instead of moving envelopes around.
#[derive(Debug)]
pub struct OutboxColumns<M> {
    src: Vec<ProcessId>,
    dst: Vec<ProcessId>,
    /// Per message: its index into `tag` and `payload`.
    slot: Vec<u32>,
    tag: Vec<Tag>,
    payload: Vec<M>,
}

impl<M> Default for OutboxColumns<M> {
    fn default() -> Self {
        OutboxColumns {
            src: Vec::new(),
            dst: Vec::new(),
            slot: Vec::new(),
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
        self.dst.len()
    }

    /// `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Drops all messages, keeping the column capacities for reuse.
    pub fn clear(&mut self) {
        self.src.clear();
        self.dst.clear();
        self.slot.clear();
        self.tag.clear();
        self.payload.clear();
    }

    /// Drops every payload, keeping the routing rows (so [`len`](Self::len)
    /// still counts the round's messages) and every column's capacity. No
    /// message can be read through [`get`](Self::get) until the next
    /// [`clear`](Self::clear).
    pub(crate) fn drop_payloads(&mut self) {
        self.payload.clear();
    }

    /// Appends one message, in a payload slot of its own.
    pub fn push(&mut self, src: ProcessId, dst: ProcessId, tag: Tag, payload: M) {
        self.src.push(src);
        self.dst.push(dst);
        self.slot.push(slot_index(self.payload.len()));
        self.tag.push(tag);
        self.payload.push(payload);
    }

    /// Appends every message of `buf`, all sent by `src`, leaving `buf`
    /// empty (capacities retained). This is the pid-ordered merge step: the
    /// per-process send buffers are concatenated as index ranges of the
    /// round outbox, in process-id order, their slots offset past the ones
    /// already here.
    pub fn append_from(&mut self, src: ProcessId, buf: &mut SendColumns<M>) {
        let offset = slot_index(self.payload.len());
        self.src.extend(std::iter::repeat_n(src, buf.dst.len()));
        self.dst.append(&mut buf.dst);
        self.slot.extend(buf.slot.drain(..).map(|s| s + offset));
        self.tag.append(&mut buf.tag);
        self.payload.append(&mut buf.payload);
    }

    /// Sender and receiver of message `i`.
    pub(crate) fn ends(&self, i: usize) -> (ProcessId, ProcessId) {
        (self.src[i], self.dst[i])
    }

    /// A borrowed view of message `i`, stamped with `round`.
    pub fn get(&self, i: usize, round: Round) -> EnvelopeRef<'_, M> {
        let slot = self.slot[i] as usize;
        EnvelopeRef {
            src: self.src[i],
            dst: self.dst[i],
            round,
            tag: self.tag[slot],
            payload: &self.payload[slot],
        }
    }

    /// Every message's routing metadata, read in place.
    pub fn view(&self) -> OutboxView<'_> {
        OutboxView {
            src: &self.src,
            dst: &self.dst,
            slot: &self.slot,
            tag: &self.tag,
        }
    }
}

/// The routing metadata of a round's outbox, borrowed from its
/// [`OutboxColumns`]: one [`OutboxMeta`] per message, in outbox order. This
/// is what the adaptive adversary reads; nothing is copied for it. The
/// default view is empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutboxView<'a> {
    src: &'a [ProcessId],
    dst: &'a [ProcessId],
    slot: &'a [u32],
    tag: &'a [Tag],
}

impl<'a> OutboxView<'a> {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Metadata of message `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> OutboxMeta {
        OutboxMeta {
            src: self.src[i],
            dst: self.dst[i],
            tag: self.tag[self.slot[i] as usize],
        }
    }

    /// Iterates the messages' metadata in outbox order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OutboxMeta> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }
}

/// One process's send buffer: the outbox columns minus the (constant) sender
/// id. [`Context::send`](crate::Context::send) appends to it and the round
/// transport drains it; reused across rounds.
///
/// A message to many targets is queued once: one payload slot, and one
/// `(dst, slot)` row per target.
#[derive(Debug)]
pub struct SendColumns<M> {
    dst: Vec<ProcessId>,
    /// Per message: its index into `tag` and `payload`. Ascending, and each
    /// slot's messages are adjacent.
    slot: Vec<u32>,
    tag: Vec<Tag>,
    payload: Vec<M>,
}

impl<M> Default for SendColumns<M> {
    fn default() -> Self {
        SendColumns {
            dst: Vec::new(),
            slot: Vec::new(),
            tag: Vec::new(),
            payload: Vec::new(),
        }
    }
}

impl<M> SendColumns<M> {
    /// Queues one message.
    pub fn push(&mut self, dst: ProcessId, tag: Tag, payload: M) {
        self.push_each([dst], tag, payload);
    }

    /// Queues one message with `payload` to each of `targets`, in target
    /// order, storing the payload once. No target queues nothing.
    pub fn push_each(
        &mut self,
        targets: impl IntoIterator<Item = ProcessId>,
        tag: Tag,
        payload: M,
    ) {
        let before = self.dst.len();
        self.dst.extend(targets);
        if self.dst.len() > before {
            self.slot
                .resize(self.dst.len(), slot_index(self.payload.len()));
            self.tag.push(tag);
            self.payload.push(payload);
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Appends one `(tag, count, bytes)` entry per run of equal tags, in
    /// send order, to `runs` — what the engine meters a process's round by.
    /// Each payload slot is sized once, for all of its messages.
    pub(crate) fn tag_runs(&self, size: impl Fn(&M) -> u64, runs: &mut Vec<(Tag, u64, u64)>) {
        for (s, msgs) in self.slot.chunk_by(|a, b| a == b).enumerate() {
            debug_assert_eq!(msgs[0] as usize, s);
            let (tag, count) = (self.tag[s], msgs.len() as u64);
            let bytes = size(&self.payload[s]) * count;
            match runs.last_mut() {
                Some((t, c, total)) if *t == tag => {
                    *c += count;
                    *total += bytes;
                }
                _ => runs.push((tag, count, bytes)),
            }
        }
    }

    /// Drains the queued messages in send order as `(dst, tag, payload)`,
    /// leaving the buffer empty with its capacity retained. A payload is
    /// cloned for every target of its slot but the last, which gets it
    /// moved. This is how a non-columnar transport (e.g. a socket runtime)
    /// consumes the send phase's output.
    pub fn drain(&mut self) -> impl Iterator<Item = (ProcessId, Tag, M)> + '_
    where
        M: Clone,
    {
        let mut slots = self.slot.drain(..).peekable();
        let mut payloads = self.tag.drain(..).zip(self.payload.drain(..));
        let mut current = None;
        self.dst.drain(..).map(move |dst| {
            let slot = slots.next().expect("one slot per message");
            let (tag, payload) =
                current.get_or_insert_with(|| payloads.next().expect("a payload per slot"));
            if slots.peek() == Some(&slot) {
                (dst, *tag, payload.clone())
            } else {
                let (tag, payload) = current.take().expect("taken above");
                (dst, tag, payload)
            }
        })
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
        let meta = OutboxMeta {
            src: ProcessId::new(0),
            dst: ProcessId::new(1),
            tag: Tag("a"),
        };
        assert_eq!(cols.view().get(0), meta);
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
            cols.push(
                ProcessId::new(i as usize),
                ProcessId::new(0),
                Tag("t"),
                i * 11,
            );
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

    #[test]
    fn drain_moves_each_slots_payload_to_its_last_target() {
        let mut buf = SendColumns::default();
        let (one, two) = (std::sync::Arc::new(1u8), std::sync::Arc::new(2u8));
        buf.push_each(ProcessId::all(3), Tag("many"), std::sync::Arc::clone(&one));
        buf.push_each([], Tag("none"), std::sync::Arc::clone(&two));
        buf.push(ProcessId::new(1), Tag("one"), std::sync::Arc::clone(&two));
        assert_eq!(buf.len(), 4);
        let mut drained = buf.drain();
        let counts: Vec<usize> = (&mut drained)
            .map(|(_, _, p)| std::sync::Arc::strong_count(&p))
            .collect();
        drop(drained);
        // Held by the test and the yielded copy, plus the slot's own while
        // a later target still needs it.
        assert_eq!(counts, [3, 3, 2, 2]);
        assert!(buf.is_empty());
        assert_eq!(
            std::sync::Arc::strong_count(&two),
            1,
            "an empty send keeps nothing"
        );
    }

    mod slots {
        use super::*;
        use crate::topology::TopologySpec;
        use crate::transport::MemTransport;
        use proptest::prelude::*;

        const N: usize = 6;
        const TAGS: [Tag; 3] = [Tag("a"), Tag("b"), Tag("c")];

        /// One process's sends as `(targets, tag, payload)`; a target list
        /// may be empty, single or repeat a target.
        type Sends = Vec<(Vec<usize>, usize, u32)>;

        fn arb_sends() -> impl Strategy<Value = Sends> {
            let targets = prop::collection::vec(0..N, 0..5);
            prop::collection::vec((targets, 0..TAGS.len(), any::<u32>()), 0..10)
        }

        /// Every process's send columns, each send queued once with
        /// `push_each` (`shared`) or once per target with `push`.
        fn queue(sends: &[Sends], shared: bool) -> Vec<SendColumns<u32>> {
            let columns = sends.iter().map(|process| {
                let mut buf = SendColumns::default();
                for (targets, tag, payload) in process {
                    let targets = targets.iter().map(|&t| ProcessId::new(t));
                    if shared {
                        buf.push_each(targets, TAGS[*tag], *payload);
                    } else {
                        targets.for_each(|dst| buf.push(dst, TAGS[*tag], *payload));
                    }
                }
                buf
            });
            columns.collect()
        }

        type Delivered = (ProcessId, ProcessId, Round, Tag, u32);

        /// What [`route`] reads: the view, every message, the deliveries
        /// and the inbox lists.
        type Routed = (
            Vec<OutboxMeta>,
            Vec<Delivered>,
            Vec<Delivered>,
            Vec<Vec<u32>>,
        );

        /// The round's outbox as seen through every reader, then routed
        /// with gates that drop some pairs.
        fn route(bufs: &mut [SendColumns<u32>]) -> Routed {
            let round = Round(3);
            let mut mem = MemTransport::new(TopologySpec::Complete, N, 0);
            mem.begin_round(round);
            for (src, buf) in bufs.iter_mut().enumerate() {
                mem.append_outbox(ProcessId::new(src), buf);
            }
            let view = mem.columns().view();
            let meta: Vec<OutboxMeta> = view.iter().collect();
            assert_eq!(meta.len(), view.len());
            assert!((0..view.len()).all(|i| view.get(i) == meta[i]));
            let read = |e: EnvelopeRef<'_, u32>| (e.src, e.dst, e.round, e.tag, *e.payload);
            let got = (0..mem.outbox_len()).map(|i| read(mem.columns().get(i, round)));
            let got = got.collect();
            let mut delivered = Vec::new();
            mem.route_with(
                round,
                |src, dst| (src.as_usize() + dst.as_usize()) % 3 != 0,
                |src, dst| src != dst,
                |e| delivered.push(read(e)),
                || (),
            );
            (meta, got, delivered, mem.inbox_lists().to_vec())
        }

        proptest! {
            #[test]
            fn push_each_equals_repeated_push(
                sends in prop::collection::vec(arb_sends(), N),
            ) {
                let (mut shared, mut single) = (queue(&sends, true), queue(&sends, false));
                for (s, p) in shared.iter().zip(&single) {
                    prop_assert_eq!(s.len(), p.len());
                    let (mut s_runs, mut p_runs) = (Vec::new(), Vec::new());
                    let size = |m: &u32| u64::from(*m % 97);
                    s.tag_runs(size, &mut s_runs);
                    p.tag_runs(size, &mut p_runs);
                    prop_assert_eq!(s_runs, p_runs);
                }
                prop_assert_eq!(route(&mut shared), route(&mut single));
                prop_assert!(shared.iter().chain(&single).all(SendColumns::is_empty));

                let (mut shared, mut single) = (queue(&sends, true), queue(&sends, false));
                for (s, p) in shared.iter_mut().zip(&mut single) {
                    let s: Vec<_> = s.drain().collect();
                    let p: Vec<_> = p.drain().collect();
                    prop_assert_eq!(s, p);
                }
            }
        }
    }
}
