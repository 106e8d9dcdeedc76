//! Bounded, ring-buffered retention for per-rumor state owned elsewhere.
//!
//! The reassembly buffers and the delivery-dedup set (`CongosNode::parts` /
//! `delivered`) and the auditor's holdings all key their entries by a rumor
//! id whose `birth` bounds the entry's useful life: nothing in the protocol
//! circulates a rumor's fragments past `birth + 2d`. Retained unboundedly
//! between full-scan prunes, at `n = 8192` the scans and the resident tail
//! dominated both time and memory.
//!
//! [`ExpiryRing`] is an index over such a container: it buckets keys by
//! expiry round and replays exactly the owner's old `retain` predicate at
//! eviction time, scanning only expired buckets plus at most one straddling
//! bucket.

use std::collections::VecDeque;

/// An expiry index over keys owned by another container: keys are filed
/// under their expiry round; [`drain_expired`](Self::drain_expired) returns
/// exactly the keys with `expire < now`, touching only expired buckets and
/// at most one straddling bucket.
#[derive(Clone, Debug)]
pub(crate) struct ExpiryRing<K> {
    /// Bucket width in rounds.
    width: u64,
    /// Oldest first: `(epoch, keys expiring in [epoch·w, (epoch+1)·w))`.
    buckets: VecDeque<(u64, Vec<(u64, K)>)>,
}

impl<K> ExpiryRing<K> {
    pub(crate) fn new(width: u64) -> Self {
        assert!(width > 0, "bucket width must be positive");
        ExpiryRing {
            width,
            buckets: VecDeque::new(),
        }
    }

    /// Files `key` under `expire`.
    pub(crate) fn insert(&mut self, expire: u64, key: K) {
        let epoch = expire / self.width;
        let pos = self.buckets.iter().position(|(e, _)| *e >= epoch);
        match pos {
            Some(i) if self.buckets[i].0 == epoch => self.buckets[i].1.push((expire, key)),
            Some(i) => self.buckets.insert(i, (epoch, vec![(expire, key)])),
            None => self.buckets.push_back((epoch, vec![(expire, key)])),
        }
    }

    /// Removes and returns every key with `expire < now`, in filing order
    /// within each bucket. Duplicate keys and keys already removed from the
    /// owning container are the caller's concern (removal is a no-op there).
    pub(crate) fn drain_expired(&mut self, now: u64) -> Vec<K> {
        let mut out = Vec::new();
        while let Some((epoch, _)) = self.buckets.front() {
            let bucket_end = (*epoch + 1) * self.width; // first round ≥ bucket
            if bucket_end <= now {
                // Entire bucket expired.
                let (_, keys) = self.buckets.pop_front().expect("front exists");
                out.extend(keys.into_iter().map(|(_, k)| k));
            } else if *epoch * self.width < now {
                // Straddling bucket: apply the exact predicate per key.
                let (_, keys) = self.buckets.front_mut().expect("front exists");
                let mut keep = Vec::with_capacity(keys.len());
                for (exp, k) in keys.drain(..) {
                    if exp < now {
                        out.push(k);
                    } else {
                        keep.push((exp, k));
                    }
                }
                *keys = keep;
                break;
            } else {
                break;
            }
        }
        out
    }

    /// Keys currently filed (including stale duplicates).
    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.buckets.iter().map(|(_, k)| k.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_ring_replays_the_exact_predicate() {
        let mut ring = ExpiryRing::new(512);
        for exp in [100u64, 600, 601, 1100, 5000] {
            ring.insert(exp, exp);
        }
        // now = 601: keys 100 and 600 expired; 601 (straddling bucket) kept.
        let mut gone = ring.drain_expired(601);
        gone.sort_unstable();
        assert_eq!(gone, vec![100, 600]);
        assert_eq!(ring.len(), 3);
        // Nothing more until the next horizon.
        assert!(ring.drain_expired(601).is_empty());
        let mut gone = ring.drain_expired(2000);
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
        let gone = ring.drain_expired(1001);
        assert_eq!(gone, vec!["early", "mid", "late"], "oldest bucket first");
    }
}
