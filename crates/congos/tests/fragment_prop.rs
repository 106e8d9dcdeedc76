//! Property tests for how fragments compare: the trace digests, the audit
//! and every buffer's dedup compare fragments by content, so two fragments
//! whose bytes and destination sets were allocated apart must be equal, and
//! hash those shared fields equal, exactly when their contents are.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use congos::split::{merge, split};
use congos::{CongosRumorId, Fragment};
use congos_sim::{IdSet, ProcessId, Round};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fragment of one fixed rumor, split and group: only `bytes` and `dest`
/// vary.
fn fragment(bytes: Arc<[u8]>, dest: Arc<IdSet>) -> Fragment {
    Fragment {
        rid: CongosRumorId {
            source: ProcessId::new(0),
            birth: Round(3),
            seq: 0,
        },
        wid: 1,
        partition: 0,
        group: 0,
        k: 2,
        bytes,
        dest,
        dline: 64,
    }
}

/// The hash of a fragment's shared fields.
fn hash_of(f: &Fragment) -> u64 {
    let mut h = DefaultHasher::new();
    f.bytes.hash(&mut h);
    f.dest.hash(&mut h);
    h.finish()
}

/// `data` split `k` ways, each fragment with its own allocations.
fn fragments(rng: &mut SmallRng, data: &[u8], k: usize, dest: &IdSet) -> Vec<Fragment> {
    split(rng, data, k)
        .into_iter()
        .map(|bytes| fragment(bytes.into(), Arc::new(dest.clone())))
        .collect()
}

fn merged(frags: &[Fragment]) -> Option<Vec<u8>> {
    let refs: Vec<&[u8]> = frags.iter().map(|f| &f.bytes[..]).collect();
    merge(&refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fragments allocated apart are equal and hash equal iff their bytes
    /// and destination sets are; the empty byte string included.
    #[test]
    fn equal_contents_make_equal_fragments(
        blob in prop::collection::vec(any::<u8>(), 0..64),
        flip in any::<usize>(),
        universe in 1usize..128,
        picks in prop::collection::vec(0usize..4096, 0..24),
    ) {
        let set = IdSet::from_iter(universe, picks.iter().map(|ix| ProcessId::new(ix % universe)));
        let a = fragment(blob.clone().into(), Arc::new(set.clone()));
        let b = fragment(blob[..].into(), Arc::new(set.clone()));
        prop_assert!(!Arc::ptr_eq(&a.bytes, &b.bytes) && !Arc::ptr_eq(&a.dest, &b.dest));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        prop_assert_eq!(&a.bytes[..], &blob[..]);
        prop_assert_eq!(&*a.dest, &set);

        if !blob.is_empty() {
            let mut other = blob.clone();
            other[flip % blob.len()] ^= 1;
            prop_assert_ne!(&a, &fragment(other.into(), Arc::new(set.clone())));
        }
        let mut other = set;
        let probe = ProcessId::new(0);
        if !other.remove(probe) {
            other.insert(probe);
        }
        prop_assert_ne!(&a, &fragment(blob.into(), Arc::new(other)));
    }

    /// Fragments of two distinct splits never compare equal, even of one
    /// rumor, and each split's fragments merge back to its data.
    #[test]
    fn distinct_splits_stay_distinct_and_merge_back(
        data_a in prop::collection::vec(any::<u8>(), 8..48),
        data_b in prop::collection::vec(any::<u8>(), 8..48),
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dest = IdSet::from_iter(8, [ProcessId::new(1), ProcessId::new(5)]);
        let splits = [
            fragments(&mut rng, &data_a, k, &dest),
            fragments(&mut rng, &data_b, k, &dest),
            fragments(&mut rng, &data_a, k, &dest),
        ];
        for (i, x) in splits.iter().enumerate() {
            for y in &splits[i + 1..] {
                for fx in x {
                    prop_assert!(y.iter().all(|fy| fx != fy));
                }
            }
        }
        for (frags, data) in splits.iter().zip([&data_a, &data_b, &data_a]) {
            prop_assert_eq!(merged(frags), Some(data.clone()));
        }
    }

    /// An empty rumor splits into `k` equal, empty fragments that merge
    /// back to it.
    #[test]
    fn empty_rumors_split_and_merge(k in 1usize..5, seed in any::<u64>()) {
        let dest = IdSet::from_iter(8, [ProcessId::new(2)]);
        let frags = fragments(&mut SmallRng::seed_from_u64(seed), &[], k, &dest);
        prop_assert_eq!(frags.len(), k);
        prop_assert!(frags.iter().all(|f| f.bytes.is_empty() && *f == frags[0]));
        prop_assert_eq!(merged(&frags), Some(Vec::new()));
    }
}
