//! Property tests for the fragment handles `FragBytes` and `DestRef`: the
//! trace digests, the audit and every buffer's dedup compare fragments by
//! content, so two handles allocated apart must still be equal (and hash
//! equal) exactly when their contents are.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use congos::split::{merge, split};
use congos::{DestRef, FragBytes};
use congos_sim::{IdSet, ProcessId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

fn handles(rng: &mut SmallRng, data: &[u8], k: usize) -> Vec<FragBytes> {
    split(rng, data, k)
        .into_iter()
        .map(FragBytes::from)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte handles allocated apart are equal and hash equal iff their
    /// contents are; the empty string included.
    #[test]
    fn equal_bytes_make_equal_handles(
        blob in prop::collection::vec(any::<u8>(), 0..64),
        flip in any::<usize>(),
    ) {
        let a = FragBytes::from(blob.clone());
        let b = FragBytes::from(&blob[..]);
        prop_assert!(!FragBytes::ptr_eq(&a, &b));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        prop_assert_eq!(&*a, &blob[..]);

        if !blob.is_empty() {
            let mut other = blob.clone();
            other[flip % blob.len()] ^= 1;
            prop_assert_ne!(&a, &FragBytes::from(other));
        }
    }

    /// Destination handles allocated apart are equal and hash equal iff
    /// their sets are.
    #[test]
    fn equal_sets_make_equal_handles(
        universe in 1usize..128,
        picks in prop::collection::vec(0usize..4096, 0..24),
    ) {
        let set = IdSet::from_iter(universe, picks.iter().map(|ix| ProcessId::new(ix % universe)));
        let a = DestRef::from(&set);
        let b = DestRef::from(set.clone());
        prop_assert!(!DestRef::ptr_eq(&a, &b));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        prop_assert_eq!(&*a, &set);

        let mut other = set;
        let probe = ProcessId::new(0);
        if !other.remove(probe) {
            other.insert(probe);
        }
        prop_assert_ne!(&a, &DestRef::from(other));
    }

    /// Fragments of two distinct splits never compare equal, even of one
    /// rumor, and each split's handles merge back to its data.
    #[test]
    fn distinct_splits_stay_distinct_and_merge_back(
        data_a in prop::collection::vec(any::<u8>(), 8..48),
        data_b in prop::collection::vec(any::<u8>(), 8..48),
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let splits = [
            handles(&mut rng, &data_a, k),
            handles(&mut rng, &data_b, k),
            handles(&mut rng, &data_a, k),
        ];
        for (i, x) in splits.iter().enumerate() {
            for y in &splits[i + 1..] {
                for fx in x {
                    prop_assert!(y.iter().all(|fy| fx != fy));
                }
            }
        }
        for (frags, data) in splits.iter().zip([&data_a, &data_b, &data_a]) {
            let refs: Vec<&[u8]> = frags.iter().map(|f| &f[..]).collect();
            let merged = merge(&refs);
            prop_assert_eq!(merged.as_ref(), Some(data));
        }
    }

    /// An empty rumor splits into `k` empty handles that merge back to it.
    #[test]
    fn empty_rumors_split_and_merge(k in 1usize..5, seed in any::<u64>()) {
        let frags = handles(&mut SmallRng::seed_from_u64(seed), &[], k);
        prop_assert_eq!(frags.len(), k);
        prop_assert!(frags.iter().all(|f| f.is_empty() && *f == frags[0]));
        let refs: Vec<&[u8]> = frags.iter().map(|f| &f[..]).collect();
        prop_assert_eq!(merge(&refs), Some(Vec::new()));
    }
}
