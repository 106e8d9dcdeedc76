//! Wire types: fragments and the multiplexed CONGOS message.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use congos_gossip::GossipWire;
use congos_sim::{IdSet, ProcessId, Tag};

use crate::rumor::{CongosRumorId, Rumor};

/// A shared fragment byte string.
///
/// Dereferences to `[u8]`; equality and hashing are by content, with a
/// pointer-identity fast path. Clones share the allocation.
#[derive(Clone)]
pub struct FragBytes(Arc<[u8]>);

impl FragBytes {
    /// `true` if both handles point at the same allocation.
    pub fn ptr_eq(a: &FragBytes, b: &FragBytes) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for FragBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq for FragBytes {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for FragBytes {}

impl Hash for FragBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for FragBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FragBytes({} bytes)", self.0.len())
    }
}

impl From<Vec<u8>> for FragBytes {
    fn from(v: Vec<u8>) -> Self {
        FragBytes(v.into())
    }
}

impl From<&[u8]> for FragBytes {
    fn from(v: &[u8]) -> Self {
        FragBytes(v.into())
    }
}

/// A shared destination set.
///
/// Dereferences to [`IdSet`]; equality and hashing are by content, with a
/// pointer-identity fast path. Clones share the allocation.
#[derive(Clone)]
pub struct DestRef(Arc<IdSet>);

impl DestRef {
    /// `true` if both handles point at the same allocation.
    pub fn ptr_eq(a: &DestRef, b: &DestRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for DestRef {
    type Target = IdSet;
    fn deref(&self) -> &IdSet {
        &self.0
    }
}

impl PartialEq for DestRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}
impl Eq for DestRef {}

impl Hash for DestRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for DestRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl From<IdSet> for DestRef {
    fn from(s: IdSet) -> Self {
        DestRef(Arc::new(s))
    }
}

impl From<&IdSet> for DestRef {
    fn from(s: &IdSet) -> Self {
        DestRef(Arc::new(s.clone()))
    }
}

/// One fragment of a split rumor, for one partition.
///
/// The `bytes` carry no information about the rumor on their own (XOR
/// secret sharing, [`crate::split`]); everything else is the metadata the
/// paper deliberately attaches to fragments — destination set, deadline
/// class, identity — which the protocol needs for routing and confirmation
/// and which the confidentiality definition permits to circulate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fragment {
    /// Identity of the original rumor.
    pub rid: CongosRumorId,
    /// Workload id (experiment correlation only).
    pub wid: u64,
    /// Partition index `ℓ` this split belongs to.
    pub partition: u16,
    /// Group index of this fragment within partition `ℓ` (fragment `g` is
    /// confined to group `g`).
    pub group: u8,
    /// Total fragments in this split (`τ+1`).
    pub k: u8,
    /// The fragment bytes (a uniform pad, or the XOR-masked residue). Every
    /// clone of this fragment a process buffers shares one allocation.
    pub bytes: FragBytes,
    /// The rumor's destination set `ρ.D` (metadata). At the source all
    /// `k·p` fragments of one rumor share one allocation.
    pub dest: DestRef,
    /// Trimmed deadline class of the rumor (selects the protocol instance).
    pub dline: u64,
}

impl Fragment {
    /// Key identifying the split this fragment belongs to.
    pub fn split_key(&self) -> (CongosRumorId, u16) {
        (self.rid, self.partition)
    }
}

/// Payload carried inside GroupGossip/AllGossip instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipPayload {
    /// Rumor fragments spreading within their group (the source's own-group
    /// injection, and proxies re-sharing fragments received from other
    /// groups).
    Fragments(Vec<Fragment>),
    /// Proxy-service iteration metadata shared within a group: processes the
    /// sender has learned are failed proxies, plus an "I am an active
    /// collaborator" beacon (Figure 9's `⟨proxy-buffer, failed-proxies, i⟩`;
    /// the buffer fragments ride separately as [`GossipPayload::Fragments`]).
    ProxyMeta {
        /// Failed proxies learned this block.
        failed_proxies: Vec<ProcessId>,
    },
    /// GroupDistribution iteration metadata shared within a group:
    /// the sender's hit-set (Figure 10's `⟨share, hitSet, i⟩`). The group is
    /// implicit — shares never leave the group that produced them.
    GdShare {
        /// `(target, rumor id)` pairs already served.
        hits: Vec<(ProcessId, CongosRumorId)>,
    },
    /// Sanitized distribution metadata broadcast via AllGossip at block end
    /// (Figure 10's `⟨distribution, i, ℓ, hitSet⟩`): which fragments were
    /// sent to which processes — identities only, no fragment bytes.
    Distribution {
        /// Partition the hits belong to.
        partition: u16,
        /// Group of the *sender* in that partition (whose fragment was
        /// distributed).
        group: u8,
        /// `(target, rumor id)` pairs served.
        hits: Vec<(ProcessId, CongosRumorId)>,
    },
}

/// Identifies one gossip endpoint within a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GossipLane {
    /// `GroupGossip[ℓ]` of a deadline class (the filtered instance for the
    /// sender's group in partition `ℓ`).
    Group {
        /// Deadline class.
        dline: u64,
        /// Partition index.
        ell: u16,
    },
    /// The unfiltered `AllGossip` of a deadline class.
    All {
        /// Deadline class.
        dline: u64,
    },
}

/// The multiplexed message type of a CONGOS process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CongosMsg {
    /// Traffic of a gossip endpoint, held inline: the wire is at most as
    /// large as the other variants, so a box would only add an allocation
    /// per message. Payloads are `Arc`-shared: epidemic push clones a batch
    /// per target every round, and the payloads are the bulk of the bytes.
    Gossip {
        /// Which endpoint.
        lane: GossipLane,
        /// The gossip wire message.
        wire: GossipWire<Arc<GossipPayload>>,
    },
    /// A proxy request (Figure 9, round 1 of an iteration): fragments the
    /// receiver is asked to spread in its own group.
    ProxyRequest {
        /// Deadline class.
        dline: u64,
        /// Partition index.
        ell: u16,
        /// Fragments belonging to the receiver's group.
        fragments: Vec<Fragment>,
    },
    /// Acknowledgment that proxying succeeded (Figure 9, last round).
    ProxyAck {
        /// Deadline class.
        dline: u64,
        /// Partition index.
        ell: u16,
    },
    /// GroupDistribution delivery (Figure 10, round 2): fragments whose
    /// destination set contains the receiver.
    Partials {
        /// Deadline class.
        dline: u64,
        /// Partition index.
        ell: u16,
        /// The "appropriate" fragments for this receiver.
        fragments: Vec<Fragment>,
    },
    /// The deadline fallback: the whole rumor, sent directly to a
    /// destination (Figure 8's `⟨shoot, r⟩`). Also used for deadlines too
    /// short for the pipeline (`direct = true`).
    Shoot {
        /// The rumor (receiver is guaranteed to be in `rumor.dest`), shared
        /// by every destination's copy of one shoot. The `Arc` exists in
        /// memory only: each copy is encoded and sized as the whole rumor.
        rumor: Arc<Rumor>,
        /// Identity, for delivery dedup.
        rid: CongosRumorId,
        /// `true` when sent eagerly (short deadline / degenerate collusion)
        /// rather than as an expiring-deadline fallback.
        direct: bool,
    },
}

impl CongosMsg {
    /// The service tag this message is sent and metered under. The tag is a
    /// function of the message, so it never travels on the wire.
    pub fn tag(&self) -> Tag {
        match self {
            CongosMsg::Gossip {
                lane: GossipLane::Group { .. },
                ..
            } => TAG_GROUP_GOSSIP,
            CongosMsg::Gossip {
                lane: GossipLane::All { .. },
                ..
            } => TAG_ALL_GOSSIP,
            CongosMsg::ProxyRequest { .. } | CongosMsg::ProxyAck { .. } => TAG_PROXY,
            CongosMsg::Partials { .. } => TAG_GD,
            CongosMsg::Shoot { .. } => TAG_SHOOT,
        }
    }

    /// The fragments this message carries, in wire order: those of every
    /// [`GossipPayload::Fragments`] a gossip lane pushes, and those of a
    /// `ProxyRequest` or `Partials`. Every other payload carries identities
    /// only, and a `Shoot` carries the whole rumor instead.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        self.fragment_batches().flatten()
    }

    /// [`fragments`](Self::fragments), one slice per pushed gossip payload
    /// (a push can batch several) or per `ProxyRequest` / `Partials`.
    pub fn fragment_batches(&self) -> impl Iterator<Item = &[Fragment]> {
        let (pushed, sent): (&[_], Option<&[Fragment]>) = match self {
            CongosMsg::Gossip { wire, .. } => match wire {
                GossipWire::Push(rumors) => (rumors.as_slice(), None),
                GossipWire::Ack(_) => (&[], None),
            },
            CongosMsg::ProxyRequest { fragments, .. } | CongosMsg::Partials { fragments, .. } => {
                (&[], Some(fragments))
            }
            CongosMsg::ProxyAck { .. } | CongosMsg::Shoot { .. } => (&[], None),
        };
        let pushed = pushed.iter().filter_map(|r| match r.payload.as_ref() {
            GossipPayload::Fragments(frags) => Some(frags.as_slice()),
            _ => None,
        });
        pushed.chain(sent)
    }
}

/// Tag for Proxy service traffic (requests + acks), metered per Lemma 7.
pub const TAG_PROXY: Tag = Tag("proxy");
/// Tag for GroupDistribution service traffic, metered per Lemma 7.
pub const TAG_GD: Tag = Tag("group_dist");
/// Tag for the filtered GroupGossip substrate instances.
pub const TAG_GROUP_GOSSIP: Tag = Tag("group_gossip");
/// Tag for the unfiltered AllGossip substrate instance.
pub const TAG_ALL_GOSSIP: Tag = Tag("all_gossip");
/// Tag for deadline-fallback and short-deadline direct sends.
pub const TAG_SHOOT: Tag = Tag("shoot");

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::{IdSet, Round};

    #[test]
    fn tag_is_a_function_of_the_message() {
        let rid = CongosRumorId {
            source: ProcessId::new(0),
            birth: Round(0),
            seq: 0,
        };
        let gossip = |lane| CongosMsg::Gossip {
            lane,
            wire: GossipWire::Ack(vec![]),
        };
        let cases = [
            (
                gossip(GossipLane::Group { dline: 64, ell: 1 }),
                TAG_GROUP_GOSSIP,
            ),
            (gossip(GossipLane::All { dline: 64 }), TAG_ALL_GOSSIP),
            (
                CongosMsg::ProxyRequest {
                    dline: 64,
                    ell: 0,
                    fragments: vec![],
                },
                TAG_PROXY,
            ),
            (CongosMsg::ProxyAck { dline: 64, ell: 0 }, TAG_PROXY),
            (
                CongosMsg::Partials {
                    dline: 64,
                    ell: 0,
                    fragments: vec![],
                },
                TAG_GD,
            ),
            (
                CongosMsg::Shoot {
                    rumor: Arc::new(Rumor {
                        wid: 0,
                        data: vec![],
                        deadline: 64,
                        dest: IdSet::empty(4),
                    }),
                    rid,
                    direct: false,
                },
                TAG_SHOOT,
            ),
        ];
        for (msg, tag) in cases {
            assert_eq!(msg.tag(), tag, "{msg:?}");
        }
    }

    /// Every message of a round is moved through the engine's columns and
    /// inboxes by value, so the enum's size is paid per message, and a boxed
    /// field is one more allocation per message. A variant that would grow
    /// the enum goes behind an `Arc` (shared, like `Shoot`'s rumor) or a
    /// `Box`; the gossip wire, the bulk of the traffic, stays inline.
    #[test]
    fn a_message_is_at_most_48_bytes_and_holds_its_wire_inline() {
        let size = std::mem::size_of::<CongosMsg>();
        assert!(size <= 48, "CongosMsg is {size} bytes");
        let msg = CongosMsg::Gossip {
            lane: GossipLane::All { dline: 64 },
            wire: GossipWire::Ack(vec![]),
        };
        let CongosMsg::Gossip { wire, .. } = &msg else {
            unreachable!()
        };
        let wire: &GossipWire<_> = wire;
        let start = &msg as *const CongosMsg as usize;
        let at = wire as *const GossipWire<_> as usize;
        assert!(
            (start..start + size).contains(&at),
            "the wire is not inline"
        );
    }

    #[test]
    fn split_key_groups_fragments_of_one_split() {
        let rid = CongosRumorId {
            source: ProcessId::new(0),
            birth: Round(3),
            seq: 0,
        };
        let f = |group: u8, partition: u16| Fragment {
            rid,
            wid: 0,
            partition,
            group,
            k: 2,
            bytes: vec![].into(),
            dest: congos_sim::IdSet::empty(4).into(),
            dline: 64,
        };
        assert_eq!(f(0, 1).split_key(), f(1, 1).split_key());
        assert_ne!(f(0, 1).split_key(), f(0, 2).split_key());
    }
}
