//! XOR rumor splitting — the paper's "very simple coding scheme".
//!
//! Section 4.1: *"let `ρ₀.z` be a random binary string, and let
//! `ρ₁.z = ρ.z xor ρ₀.z`"*; Section 6.2 generalizes to `τ+1` fragments:
//! `ρ₀…ρ_{τ−1}` random, `ρ_τ = ρ xor ρ₀ xor … xor ρ_{τ−1}`. This is the
//! simplest instantiation of cryptographic secret sharing (Shamir [34]):
//! any proper subset of the fragments is a uniformly random string carrying
//! **zero information** about the rumor (information-theoretic hiding), yet
//! all fragments together reconstruct it exactly.
//!
//! Each partition uses an *independent* split (fresh pads), so fragments
//! from different partitions never combine — the auditor in [`crate::audit`]
//! checks reconstruction per `(rumor, partition)` pair accordingly.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

/// Splits `data` into `k ≥ 1` fragments such that the XOR of all fragments
/// equals `data`, and any `k−1` of them are independent uniform randomness.
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let fragments = congos::split::split(&mut rng, b"secret", 3);
/// let refs: Vec<&[u8]> = fragments.iter().map(|f| f.as_slice()).collect();
/// assert_eq!(congos::split::merge(&refs), Some(b"secret".to_vec()));
/// ```
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split(rng: &mut SmallRng, data: &[u8], k: usize) -> Vec<Vec<u8>> {
    assert!(k >= 1, "need at least one fragment");
    let mut fragments: Vec<Vec<u8>> = Vec::with_capacity(k);
    let mut acc: Vec<u8> = data.to_vec();
    for _ in 0..k - 1 {
        let pad: Vec<u8> = (0..data.len()).map(|_| rng.gen()).collect();
        for (a, p) in acc.iter_mut().zip(&pad) {
            *a ^= p;
        }
        fragments.push(pad);
    }
    fragments.push(acc);
    fragments
}

/// Only the benchmark uses `FragStore`, `FragStoreStats` and
/// [`split_interned`] (its pinned API surface); they go with the paired
/// benchmark change (ROADMAP item 4(vii)). There is no fragment store:
/// `gc` does nothing, `stats` reads zero and `intern_bytes` allocates.
#[derive(Debug, Default)]
pub struct FragStore;

/// Always zero.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, Default)]
pub struct FragStoreStats {
    pub hits: u64,
    pub misses: u64,
}

#[allow(missing_docs)]
impl FragStore {
    pub fn new() -> Self {
        FragStore
    }
    pub fn global() -> &'static FragStore {
        &FragStore
    }
    pub fn gc(&self) {}
    pub fn stats(&self) -> FragStoreStats {
        FragStoreStats::default()
    }
    pub fn intern_bytes(&self, bytes: &[u8]) -> Arc<[u8]> {
        bytes.into()
    }
}

/// [`split`] into `Arc`s, ignoring the store (see [`FragStore`]).
pub fn split_interned(rng: &mut SmallRng, data: &[u8], k: usize, _: &FragStore) -> Vec<Arc<[u8]>> {
    split(rng, data, k).into_iter().map(Into::into).collect()
}

/// Reassembles a rumor from all of its fragments (XOR of the set).
///
/// Returns `None` if `fragments` is empty or the fragments disagree in
/// length (they cannot all come from one [`split`]).
pub fn merge(fragments: &[&[u8]]) -> Option<Vec<u8>> {
    let first = fragments.first()?;
    if fragments.iter().any(|f| f.len() != first.len()) {
        return None;
    }
    let mut out = first.to_vec();
    for f in &fragments[1..] {
        for (o, b) in out.iter_mut().zip(f.iter()) {
            *o ^= b;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn split_then_merge_round_trips() {
        let mut rng = SmallRng::seed_from_u64(1);
        for k in 1..=6 {
            for len in [0usize, 1, 7, 64] {
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let frags = split(&mut rng, &data, k);
                assert_eq!(frags.len(), k);
                assert!(frags.iter().all(|f| f.len() == len));
                let refs: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
                assert_eq!(merge(&refs).unwrap(), data, "k={k}, len={len}");
            }
        }
    }

    #[test]
    fn any_proper_subset_reveals_nothing() {
        // Hiding is information-theoretic: for fixed pads, flipping any bit
        // of the rumor leaves every proper subset of fragments unchanged
        // except the last fragment — i.e. the first k−1 fragments are
        // independent of the data; and the last fragment alone is the data
        // XOR a uniform pad, itself uniform. We verify the structural part:
        // first k−1 fragments are identical across different rumors when the
        // RNG stream is replayed.
        let data_a = vec![0u8; 32];
        let data_b = vec![0xFFu8; 32];
        let frags_a = split(&mut SmallRng::seed_from_u64(9), &data_a, 4);
        let frags_b = split(&mut SmallRng::seed_from_u64(9), &data_b, 4);
        for i in 0..3 {
            assert_eq!(frags_a[i], frags_b[i], "pad {i} is data-independent");
        }
        assert_ne!(frags_a[3], frags_b[3]);
    }

    #[test]
    fn last_fragment_is_masked_by_pads() {
        // With k ≥ 2 the data-dependent fragment is XOR-masked: it differs
        // from the raw data whenever the combined pad is non-zero.
        let mut rng = SmallRng::seed_from_u64(2);
        let data = vec![0u8; 64];
        let frags = split(&mut rng, &data, 2);
        // Pad of 64 random bytes is all-zero with probability 2^-512.
        assert_ne!(frags[1], data);
        // And it equals the XOR of data with the pad.
        let refs: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        assert_eq!(merge(&refs).unwrap(), data);
    }

    #[test]
    fn merge_rejects_mismatched_or_empty() {
        assert_eq!(merge(&[]), None);
        let a = [1u8, 2];
        let b = [1u8, 2, 3];
        assert_eq!(merge(&[&a, &b]), None);
    }

    #[test]
    fn k_equals_one_is_identity() {
        let mut rng = SmallRng::seed_from_u64(3);
        let data = vec![5u8, 6, 7];
        let frags = split(&mut rng, &data, 1);
        assert_eq!(frags, vec![data]);
    }

    #[test]
    #[should_panic(expected = "at least one fragment")]
    fn zero_fragments_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = split(&mut rng, &[1], 0);
    }
}
