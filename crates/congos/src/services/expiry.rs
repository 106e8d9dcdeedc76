//! Bounded, ring-buffered retention for per-rumor state owned elsewhere.
//!
//! The reassembly buffers and the delivery-dedup set (`CongosNode::parts` /
//! `delivered`) and the auditor's holdings all key their entries by a rumor
//! id whose `birth` bounds the entry's useful life: nothing in the protocol
//! circulates a rumor's fragments or its `Shoot` past its horizon
//! `birth + 2·dline`, where `dline` is the rumor's trimmed deadline class.
//! Both file each entry at that horizon. The node takes `dline` only from
//! a checked class (a fragment's must be its message's, a fallback
//! `Shoot`'s must trim to a valid class) and rejects a fragment or `Shoot`
//! that arrives after the horizon, so a pruned rumor is not delivered
//! twice; the auditor skips such a receipt the same way.
//!
//! [`ExpiryRing`] is an index over such a container: it buckets keys by
//! expiry round and replays exactly the owner's `retain` predicate at
//! eviction time, scanning only expired buckets plus at most one straddling
//! bucket. Both owners drain it every round, so a drain must not allocate:
//! expired keys go to a callback, a straddling bucket is retained in place,
//! and an emptied bucket's vector is kept for the next bucket filed.

use std::collections::VecDeque;

/// An expiry index over keys owned by another container: keys are filed
/// under their expiry round; [`drain_expired`](Self::drain_expired) hands
/// over exactly the keys with `expire < now`, touching only expired buckets
/// and at most one straddling bucket.
///
/// With width 1 no bucket straddles, so a drain costs O(expired keys).
#[derive(Clone, Debug)]
pub(crate) struct ExpiryRing<K> {
    /// Bucket width in rounds.
    width: u64,
    /// Oldest first: `(epoch, keys expiring in [epoch·w, (epoch+1)·w))`.
    buckets: VecDeque<(u64, Vec<(u64, K)>)>,
    /// Emptied bucket vectors, reused (capacity kept) by new buckets.
    spare: Vec<Vec<(u64, K)>>,
}

impl<K: Copy> ExpiryRing<K> {
    pub(crate) fn new(width: u64) -> Self {
        assert!(width > 0, "bucket width must be positive");
        ExpiryRing {
            width,
            buckets: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    /// Files `key` under `expire`.
    pub(crate) fn insert(&mut self, expire: u64, key: K) {
        let epoch = expire / self.width;
        let i = self.buckets.partition_point(|(e, _)| *e < epoch);
        match self.buckets.get_mut(i) {
            Some((e, keys)) if *e == epoch => keys.push((expire, key)),
            _ => {
                let mut keys = self.spare.pop().unwrap_or_default();
                keys.push((expire, key));
                self.buckets.insert(i, (epoch, keys));
            }
        }
    }

    /// Hands every key with `expire < now` to `expired` and forgets it:
    /// oldest bucket first, in filing order within each bucket. Duplicate
    /// keys and keys already removed from the owning container are the
    /// caller's concern (removal is a no-op there).
    pub(crate) fn drain_expired(&mut self, now: u64, mut expired: impl FnMut(K)) {
        while let Some((epoch, keys)) = self.buckets.front_mut() {
            if (*epoch + 1) * self.width <= now {
                // Entire bucket expired.
                for (_, k) in keys.drain(..) {
                    expired(k);
                }
                let (_, keys) = self.buckets.pop_front().expect("front exists");
                self.spare.push(keys);
            } else {
                if *epoch * self.width < now {
                    // Straddling bucket: apply the exact predicate per key.
                    keys.retain(|&(exp, k)| {
                        let keep = exp >= now;
                        if !keep {
                            expired(k);
                        }
                        keep
                    });
                }
                break;
            }
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
        let mut ring = ExpiryRing::new(512);
        for exp in [100u64, 600, 601, 1100, 5000] {
            ring.insert(exp, exp);
        }
        // now = 601: keys 100 and 600 expired; 601 (straddling bucket) kept.
        let mut gone = drain(&mut ring, 601);
        gone.sort_unstable();
        assert_eq!(gone, vec![100, 600]);
        assert_eq!(ring.len(), 3);
        // Nothing more until the next horizon.
        assert!(drain(&mut ring, 601).is_empty());
        let mut gone = drain(&mut ring, 2000);
        gone.sort_unstable();
        assert_eq!(gone, vec![601, 1100]);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn expiry_ring_handles_out_of_order_inserts() {
        let mut ring = ExpiryRing::new(64);
        ring.insert(1000, "late");
        ring.insert(10, "early");
        ring.insert(500, "mid");
        let gone = drain(&mut ring, 1001);
        assert_eq!(gone, vec!["early", "mid", "late"], "oldest bucket first");
    }

    #[test]
    fn a_straddling_bucket_drains_over_consecutive_rounds() {
        // Bucket [0, 8) holds keys expiring in rounds 2..=5, filed out of
        // order; round-by-round drains hand over each key in the first
        // round past its expiry and keep the rest in place.
        let mut ring = ExpiryRing::new(8);
        for exp in [4u64, 2, 5, 2, 3] {
            ring.insert(exp, exp);
        }
        let per_round: Vec<Vec<u64>> = (0..8).map(|now| drain(&mut ring, now)).collect();
        let want: [&[u64]; 8] = [&[], &[], &[], &[2, 2], &[3], &[4], &[5], &[]];
        assert_eq!(per_round, want);
        assert_eq!(ring.len(), 0);
        assert_eq!(
            ring.buckets.len(),
            1,
            "the emptied bucket waits for round 8"
        );
        assert!(drain(&mut ring, 8).is_empty());
        assert_eq!((ring.buckets.len(), ring.spare.len()), (0, 1));
        // A new bucket reuses the emptied vector.
        ring.insert(20, 20);
        assert_eq!(ring.spare.len(), 0);
        assert_eq!(drain(&mut ring, 21), [20]);
    }

    #[test]
    fn width_one_drains_only_expired_buckets() {
        let mut ring = ExpiryRing::new(1);
        for exp in [7u64, 3, 7, 5] {
            ring.insert(exp, exp);
        }
        assert_eq!(ring.buckets.len(), 3, "one bucket per expiry round");
        assert!(drain(&mut ring, 3).is_empty());
        assert_eq!(drain(&mut ring, 6), [3, 5]);
        assert_eq!(drain(&mut ring, 8), [7, 7]);
        assert_eq!((ring.len(), ring.spare.len()), (0, 3));
    }
}
