//! Gossip-level rumors: identity, payload, deadline and destination set.

use congos_sim::{IdSet, ProcessId, Round};
use std::fmt;

/// Globally unique rumor identity: the injecting process, the injection
/// round, and a round-local sequence number.
///
/// The injection round is part of the identity because processes have **no
/// durable storage**: a restarted process restarts its sequence counter, and
/// without the round component its fresh rumors would collide with — and be
/// deduplicated against — the ids of its pre-crash rumors still remembered
/// by the rest of the system. A crash and a restart cannot occur in the same
/// round, so two incarnations of a process never inject in the same round.
/// (The paper notes the sequence number can be replaced by a pseudorandom
/// identifier to leak less metadata; identity semantics are unchanged.)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RumorId {
    /// Process that injected the rumor into this gossip instance.
    pub origin: ProcessId,
    /// Round in which the rumor was injected.
    pub birth: Round,
    /// Sequence number among this origin's injections in `birth`.
    pub seq: u32,
}

impl fmt::Debug for RumorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.origin, self.birth, self.seq)
    }
}

/// A rumor as carried by the continuous gossip service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipRumor<T> {
    /// Unique identity.
    pub id: RumorId,
    /// Opaque payload (for CONGOS: a rumor fragment or sanitized metadata).
    pub payload: T,
    /// Deadline *duration* in rounds, as injected (`ρ.d`). Used by the
    /// fanout formula, which depends on `dmin` of the active rumors.
    pub duration: u64,
    /// Absolute deadline round: injection round + duration.
    pub deadline: Round,
    /// Destination set within this instance's membership. It needs no
    /// sharing of its own: the whole rumor is one `Arc` shared by every
    /// endpoint and push batch that holds it.
    pub dest: IdSet,
    /// Best-effort rumors are delivered when the epidemic reaches a
    /// destination but carry **no** Quality-of-Delivery obligation: the
    /// origin does not track acknowledgments and does not fire the
    /// deadline fallback, and receivers do not acknowledge. Used for
    /// metadata whose consumers need only eventual (not guaranteed)
    /// delivery — per-member ack/fallback traffic for such rumors would
    /// add an `n²`-per-iteration term the paper's bound does not have.
    pub best_effort: bool,
}

impl<T> GossipRumor<T> {
    /// `true` if the rumor is still active (its deadline has not passed) at
    /// the start of round `now`.
    pub fn active_at(&self, now: Round) -> bool {
        self.deadline >= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_id_debug_is_compact() {
        let id = RumorId {
            origin: ProcessId::new(3),
            birth: Round(4),
            seq: 9,
        };
        assert_eq!(format!("{id:?}"), "p3@r4#9");
    }

    #[test]
    fn activity_window_is_inclusive() {
        let r = GossipRumor {
            id: RumorId {
                origin: ProcessId::new(0),
                birth: Round(0),
                seq: 0,
            },
            payload: (),
            duration: 8,
            deadline: Round(10),
            dest: IdSet::empty(4),
            best_effort: false,
        };
        assert!(r.active_at(Round(10)));
        assert!(!r.active_at(Round(11)));
    }
}
