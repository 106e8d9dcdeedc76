//! Property-based tests of the simulator's core data structures, checked
//! against naive reference models.

use std::collections::BTreeSet;

use congos_sim::clock::{trim_deadline, BlockClock};
use congos_sim::liveness::LivenessLog;
use congos_sim::{IdSet, ProcessId, Round};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An arbitrary set over an arbitrary universe `0..n`, `n` not tied to the
/// word size (the empty universe and the empty set included).
fn arb_idset() -> impl Strategy<Value = IdSet> {
    (0usize..200, prop::collection::vec(any::<bool>(), 200))
        .prop_map(|(n, bits)| IdSet::from_iter(n, (0..n).filter(|i| bits[*i]).map(ProcessId::new)))
}

/// First picks of `sample` are uniform over the members, in the sparse
/// (`k = 1`) and the dense (`k = 2` of 5) regime alike.
#[test]
fn idset_sample_first_pick_is_uniform() {
    let members = [3usize, 64, 65, 129, 130];
    let set = IdSet::from_iter(131, members.map(ProcessId::new));
    for k in [1, 2] {
        let mut rng = SmallRng::seed_from_u64(0x5a3b1e);
        let mut hits = [0u32; 5];
        for _ in 0..20_000 {
            let first = set.sample(k, &mut rng)[0];
            hits[set.rank(first)] += 1;
        }
        // Expected 4000 each, σ ≈ 57: ±300 is beyond 5σ.
        assert!(
            hits.iter().all(|h| (3700..=4300).contains(h)),
            "k = {k}: first-pick counts {hits:?}"
        );
    }
}

proptest! {
    /// IdSet agrees with a BTreeSet model under any operation sequence.
    #[test]
    fn idset_matches_btreeset_model(
        ops in prop::collection::vec((0usize..3, 0usize..96), 0..200)
    ) {
        let n = 96;
        let mut set = IdSet::empty(n);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for (op, i) in ops {
            let p = ProcessId::new(i);
            match op {
                0 => {
                    prop_assert_eq!(set.insert(p), model.insert(i));
                }
                1 => {
                    prop_assert_eq!(set.remove(p), model.remove(&i));
                }
                _ => {
                    prop_assert_eq!(set.contains(p), model.contains(&i));
                }
            }
            prop_assert_eq!(set.len(), model.len());
        }
        let got: Vec<usize> = set.iter().map(ProcessId::as_usize).collect();
        let want: Vec<usize> = model.into_iter().collect();
        prop_assert_eq!(got, want, "iteration order is sorted and complete");
    }

    /// Set algebra matches the model.
    #[test]
    fn idset_algebra_matches_model(
        a in prop::collection::btree_set(0usize..64, 0..40),
        b in prop::collection::btree_set(0usize..64, 0..40),
    ) {
        let n = 64;
        let sa = IdSet::from_iter(n, a.iter().map(|i| ProcessId::new(*i)));
        let sb = IdSet::from_iter(n, b.iter().map(|i| ProcessId::new(*i)));

        let mut u = sa.clone();
        u.union_with(&sb);
        let mu: BTreeSet<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(u.len(), mu.len());

        let mut i = sa.clone();
        i.intersect_with(&sb);
        let mi: BTreeSet<usize> = a.intersection(&b).copied().collect();
        prop_assert_eq!(i.len(), mi.len());

        let mut d = sa.clone();
        d.subtract(&sb);
        let md: BTreeSet<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(d.len(), md.len());

        prop_assert_eq!(sa.is_subset_of(&sb), a.is_subset(&b));
        prop_assert_eq!(sa.is_disjoint_from(&sb), a.is_disjoint(&b));
    }

    /// trim_deadline: result is a power of two, ≤ min(d.max(1), cap),
    /// and > d/2 when no cap binds.
    #[test]
    fn trim_deadline_properties(d in 0u64..1_000_000, cap in 1u64..1_000_000) {
        let out = trim_deadline(d, cap);
        prop_assert!(out.is_power_of_two());
        prop_assert!(out <= d.max(1));
        let capped = d.min(cap).max(1);
        prop_assert!(out <= capped.next_power_of_two());
        prop_assert!(out * 2 > capped, "rounding down loses at most half");
    }

    /// Block clock invariants for any valid deadline class.
    #[test]
    fn block_clock_invariants(pow in 5u32..20, t in 0u64..1_000_000) {
        let dline = 1u64 << pow; // ≥ 32
        let c = BlockClock::new(dline);
        let t = Round(t);
        prop_assert_eq!(c.block_len(), dline / 4);
        prop_assert!(c.iterations_per_block() >= dline.isqrt() / 8, "Lemma 6");
        prop_assert!(c.offset_in_block(t) < c.block_len());
        if let Some(off) = c.offset_in_iteration(t) {
            prop_assert!(off < c.iter_len());
            let it = c.iteration_of(t).unwrap();
            prop_assert_eq!(c.offset_in_block(t), it * c.iter_len() + off);
        } else {
            prop_assert!(c.offset_in_block(t) >= c.iterations_per_block() * c.iter_len());
        }
    }

    /// Algebraic identities: `a = (a∖b) ∪ (a∩b)`, union is commutative and
    /// idempotent, and `is_empty` agrees with `len`.
    #[test]
    fn idset_algebra_identities(
        a in prop::collection::btree_set(0usize..96, 0..50),
        b in prop::collection::btree_set(0usize..96, 0..50),
    ) {
        let n = 96;
        let sa = IdSet::from_iter(n, a.iter().map(|i| ProcessId::new(*i)));
        let sb = IdSet::from_iter(n, b.iter().map(|i| ProcessId::new(*i)));

        let mut diff = sa.clone();
        diff.subtract(&sb);
        let mut meet = sa.clone();
        meet.intersect_with(&sb);
        let mut rebuilt = diff.clone();
        rebuilt.union_with(&meet);
        prop_assert_eq!(&rebuilt, &sa, "a = (a\\b) ∪ (a∩b)");

        let mut ab = sa.clone();
        ab.union_with(&sb);
        let mut ba = sb.clone();
        ba.union_with(&sa);
        prop_assert_eq!(&ab, &ba, "union commutes");
        let mut aa = sa.clone();
        aa.union_with(&sa);
        prop_assert_eq!(&aa, &sa, "union is idempotent");

        // Pins `is_empty` against `len`; clippy's rewrite would compare it with itself.
        #[allow(clippy::len_zero)]
        let len_is_zero = sa.len() == 0;
        prop_assert_eq!(sa.is_empty(), len_is_zero);
        prop_assert!(diff.is_disjoint_from(&sb));
        prop_assert!(meet.is_subset_of(&sb));
    }

    /// `FromIterator` picks the tightest universe and keeps every member.
    #[test]
    fn idset_collect_universe(ids in prop::collection::vec(0usize..200, 0..30)) {
        let set: IdSet = ids.iter().map(|i| ProcessId::new(*i)).collect();
        let expect = ids.iter().map(|i| i + 1).max().unwrap_or(0);
        prop_assert_eq!(set.universe(), expect);
        for i in &ids {
            prop_assert!(set.contains(ProcessId::new(*i)));
        }
        prop_assert_eq!(
            set.len(),
            ids.iter().collect::<BTreeSet<_>>().len(),
            "duplicates collapse"
        );
    }

    /// `rank` and `select` are inverse on members, and `select` ends at `len`.
    #[test]
    fn idset_rank_select_roundtrip(set in arb_idset()) {
        for (r, p) in set.iter().enumerate() {
            prop_assert_eq!(set.rank(p), r);
            prop_assert_eq!(set.select(set.rank(p)), Some(p));
        }
        prop_assert_eq!(set.select(set.len()), None);
        prop_assert_eq!(set.rank(ProcessId::new(set.universe())), set.len());
    }

    /// `sample` returns `min(k, len)` distinct members, and makes the draws
    /// and the picks of a partial Fisher–Yates over `to_vec()` — for `k` on
    /// both sides of the internal sparse/dense switch (`2k² ≤ len`), `k = 0`
    /// and `k > len`. `sample_into` replaces a used buffer with the same
    /// picks.
    #[test]
    fn idset_sample_matches_reference_fisher_yates(
        set in arb_idset(),
        k in prop_oneof![0usize..12, 0usize..220],
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        let mut into_rng = rng.clone();
        let picks = set.sample(k, &mut rng);
        let mut into = vec![ProcessId::new(0); 7];
        set.sample_into(k, &mut into_rng, &mut into);
        prop_assert_eq!(&into, &picks);
        prop_assert_eq!(&into_rng, &rng);

        let mut reference = set.to_vec();
        let want = k.min(reference.len());
        for i in 0..want {
            let j = reference_rng.gen_range(i..reference.len());
            reference.swap(i, j);
        }
        reference.truncate(want);
        prop_assert_eq!(&picks, &reference);
        prop_assert_eq!(rng, reference_rng, "same number and range of draws");

        prop_assert!(picks.iter().all(|p| set.contains(*p)));
        prop_assert_eq!(picks.iter().collect::<BTreeSet<_>>().len(), want, "distinct");
    }

    /// Blocks tile the timeline: `block_start(block_of(t)) ≤ t` strictly
    /// inside the next block, offsets are exactly `t mod dline/4`, and the
    /// boundary predicates agree with the offsets.
    #[test]
    fn block_clock_tiles_timeline(pow in 5u32..20, t in 0u64..1_000_000) {
        let c = BlockClock::new(1u64 << pow);
        let t = Round(t);
        let b = c.block_of(t);
        prop_assert!(c.block_start(b) <= t);
        prop_assert!(t < c.block_start(b + 1));
        prop_assert_eq!(c.offset_in_block(t), t - c.block_start(b));
        prop_assert_eq!(c.offset_in_block(t), t.as_u64() % c.block_len());
        prop_assert_eq!(c.is_block_start(t), c.offset_in_block(t) == 0);
        prop_assert_eq!(c.is_block_end(t), c.offset_in_block(t) == c.block_len() - 1);
        prop_assert_eq!(c.in_block_slack(t), c.iteration_of(t).is_none());
    }

    /// trim_deadline is idempotent and monotone, and deadline_cap is
    /// monotone in `n`.
    #[test]
    fn deadline_trimming_is_stable(
        d1 in 0u64..1_000_000,
        d2 in 0u64..1_000_000,
        cap in 1u64..1_000_000,
        n1 in 2usize..10_000,
        n2 in 2usize..10_000,
    ) {
        let out = trim_deadline(d1, cap);
        prop_assert_eq!(trim_deadline(out, cap), out, "idempotent");
        if d1 <= d2 {
            prop_assert!(trim_deadline(d1, cap) <= trim_deadline(d2, cap));
        }
        use congos_sim::clock::deadline_cap;
        if n1 <= n2 {
            prop_assert!(deadline_cap(n1) <= deadline_cap(n2));
        }
        prop_assert!(deadline_cap(n1) >= 64, "floor");
    }

    /// Liveness log vs a naive round-by-round replay.
    #[test]
    fn liveness_matches_replay(
        events in prop::collection::vec((0u64..100, prop::bool::ANY), 0..20),
        qa in 0u64..100,
        span in 0u64..30,
    ) {
        // Build a consistent event sequence for one process: alternate
        // crash/restart in round order, at most one event per round.
        let mut rounds: Vec<u64> = events.iter().map(|(r, _)| *r).collect();
        rounds.sort_unstable();
        rounds.dedup();
        let mut log = LivenessLog::new(1);
        let p = ProcessId::new(0);
        let mut alive = true;
        let mut timeline = Vec::new(); // (round, alive_after)
        for r in rounds {
            if alive {
                log.record_crash(p, Round(r));
            } else {
                log.record_restart(p, Round(r));
            }
            alive = !alive;
            timeline.push((r, alive));
        }
        // Replay model: alive at end of round t.
        let alive_at = |t: u64| -> bool {
            timeline
                .iter()
                .rfind(|(r, _)| *r <= t)
                .map(|(_, a)| *a)
                .unwrap_or(true)
        };
        let ta = qa;
        let tb = qa + span;
        prop_assert_eq!(log.alive_at_end(p, Round(tb)), alive_at(tb));
        let model_cont = (ta == 0 || alive_at(ta - 1))
            && timeline.iter().all(|(r, a)| {
                // crash events are the transitions to !alive
                !(!a && *r >= ta && *r <= tb)
            });
        prop_assert_eq!(
            log.continuously_alive(p, Round(ta), Round(tb)),
            model_cont
        );
    }
}
