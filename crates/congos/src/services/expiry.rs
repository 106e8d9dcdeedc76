//! Bounded, ring-buffered retention for per-rumor state owned elsewhere.
//!
//! The reassembly buffers and the delivery-dedup set (`CongosNode::parts` /
//! `delivered`) and the auditor's per-rumor tables all key their entries by
//! a rumor whose `birth` bounds the entry's useful life: nothing in the
//! protocol circulates a rumor's fragments or its `Shoot` past its horizon
//! `birth + 2·dline` ([`crate::rumor::horizon`]), where `dline` is the
//! rumor's trimmed deadline class. Both file each entry at that horizon.
//! The node takes `dline` only from a checked class (a fragment's must be
//! its message's, a fallback `Shoot`'s must trim to a valid class) and
//! rejects a fragment or `Shoot` that arrives after the horizon, so a
//! pruned rumor is not delivered twice; the auditor skips such a receipt
//! the same way.
//!
//! [`ExpiryRing`] is an index over such a container: it buckets keys by
//! expiry round, one bucket per round, so a drain touches only the expired
//! buckets. Both owners drain it every round, so a drain must not
//! allocate: expired keys go to a callback, and an emptied bucket's vector
//! is kept for the next bucket filed.

use std::collections::VecDeque;

/// An expiry index over keys owned by another container: keys are filed
/// under their expiry round; [`drain_expired`](Self::drain_expired) hands
/// over exactly the keys with `expire < now`, in O(expired keys).
#[derive(Clone, Debug)]
pub(crate) struct ExpiryRing<K> {
    /// Oldest first: `(expire, keys expiring in that round)`.
    buckets: VecDeque<(u64, Vec<K>)>,
    /// Emptied bucket vectors, reused (capacity kept) by new buckets.
    spare: Vec<Vec<K>>,
}

impl<K: Copy> ExpiryRing<K> {
    pub(crate) fn new() -> Self {
        ExpiryRing {
            buckets: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Files `key` under `expire`.
    pub(crate) fn insert(&mut self, expire: u64, key: K) {
        let i = self.buckets.partition_point(|(e, _)| *e < expire);
        match self.buckets.get_mut(i) {
            Some((e, keys)) if *e == expire => keys.push(key),
            _ => {
                let mut keys = self.spare.pop().unwrap_or_default();
                keys.push(key);
                self.buckets.insert(i, (expire, keys));
            }
        }
    }

    /// Hands every key with `expire < now` to `expired` and forgets it:
    /// oldest round first, in filing order within each round. Duplicate
    /// keys and keys already removed from the owning container are the
    /// caller's concern (removal is a no-op there).
    pub(crate) fn drain_expired(&mut self, now: u64, mut expired: impl FnMut(K)) {
        while self.buckets.front().is_some_and(|(e, _)| *e < now) {
            let (_, mut keys) = self.buckets.pop_front().expect("front exists");
            keys.drain(..).for_each(&mut expired);
            self.spare.push(keys);
        }
    }

    /// Keys currently filed (including stale duplicates).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(|(_, k)| k.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<K: Copy>(ring: &mut ExpiryRing<K>, now: u64) -> Vec<K> {
        let mut gone = Vec::new();
        ring.drain_expired(now, |k| gone.push(k));
        gone
    }

    #[test]
    fn expiry_ring_replays_the_exact_predicate() {
        let mut ring = ExpiryRing::new();
        for exp in [100u64, 600, 601, 1100, 5000] {
            ring.insert(exp, exp);
        }
        // now = 601: keys 100 and 600 expired; 601 kept.
        assert_eq!(drain(&mut ring, 601), [100, 600]);
        assert_eq!(ring.len(), 3);
        // Nothing more until the next horizon.
        assert!(drain(&mut ring, 601).is_empty());
        assert_eq!(drain(&mut ring, 2000), [601, 1100]);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn expiry_ring_handles_out_of_order_inserts() {
        let mut ring = ExpiryRing::new();
        ring.insert(1000, "late");
        ring.insert(10, "early");
        ring.insert(500, "mid");
        let gone = drain(&mut ring, 1001);
        assert_eq!(gone, vec!["early", "mid", "late"], "oldest bucket first");
    }

    #[test]
    fn a_drain_touches_only_expired_buckets() {
        let mut ring = ExpiryRing::new();
        for exp in [7u64, 3, 7, 5] {
            ring.insert(exp, exp);
        }
        assert_eq!(ring.buckets.len(), 3, "one bucket per expiry round");
        assert!(drain(&mut ring, 3).is_empty());
        assert_eq!(drain(&mut ring, 6), [3, 5]);
        assert_eq!(drain(&mut ring, 8), [7, 7]);
        assert_eq!((ring.len(), ring.spare.len()), (0, 3));
        // A new bucket reuses an emptied vector.
        ring.insert(20, 20);
        assert_eq!(ring.spare.len(), 2);
        assert_eq!(drain(&mut ring, 21), [20]);
    }
}
