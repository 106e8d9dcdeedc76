//! A compact set of process ids (fixed-capacity bitset).
//!
//! Destination sets, group memberships and hit-sets are manipulated on every
//! message; a `u64`-word bitset keeps them cheap to clone, intersect and
//! test.

use crate::process::ProcessId;
use rand::Rng;
use std::fmt;

/// A set of process ids over a universe `0..n`.
///
/// ```
/// use congos_sim::{IdSet, ProcessId};
///
/// let mut evens = IdSet::from_iter(8, (0..8).step_by(2).map(ProcessId::new));
/// assert!(evens.contains(ProcessId::new(4)));
/// evens.remove(ProcessId::new(0));
/// assert_eq!(evens.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IdSet {
    n: usize,
    words: Vec<u64>,
}

impl IdSet {
    /// The empty set over universe `0..n`.
    pub fn empty(n: usize) -> Self {
        IdSet {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set `{0, …, n−1}`.
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        s.fill();
        s
    }

    /// Builds a set from an iterator of ids.
    pub fn from_iter<I: IntoIterator<Item = ProcessId>>(n: usize, ids: I) -> Self {
        let mut s = Self::empty(n);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `p`; returns `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let i = p.as_usize();
        assert!(i < self.n, "{p} outside universe 0..{}", self.n);
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let i = p.as_usize();
        if i >= self.n {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Removes every member; the universe and the allocation stay.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every id of the universe, making the set
    /// [`full`](IdSet::full) in its own allocation.
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        if self.n % 64 != 0 {
            self.words[self.n / 64] = (1 << (self.n % 64)) - 1;
        }
    }

    /// Membership test (ids outside the universe are never members).
    pub fn contains(&self, p: ProcessId) -> bool {
        let i = p.as_usize();
        i < self.n && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of members with an id below `p`: a member's position in
    /// [`iter`](IdSet::iter) order.
    pub fn rank(&self, p: ProcessId) -> usize {
        let i = p.as_usize().min(self.n);
        let below = self.words[..i / 64].iter().map(|w| w.count_ones() as usize);
        let in_word = match i % 64 {
            0 => 0,
            b => (self.words[i / 64] & ((1 << b) - 1)).count_ones() as usize,
        };
        below.sum::<usize>() + in_word
    }

    /// The member at position `rank` in [`iter`](IdSet::iter) order, found
    /// by popcount without listing the members; `None` if `rank >= len`.
    pub fn select(&self, rank: usize) -> Option<ProcessId> {
        let mut left = rank;
        for (wi, w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if left < ones {
                let mut w = *w;
                for _ in 0..left {
                    w &= w - 1;
                }
                return Some(ProcessId::new(wi * 64 + w.trailing_zeros() as usize));
            }
            left -= ones;
        }
        None
    }

    /// Picks `min(k, len)` distinct members uniformly at random, in random
    /// order: [`sample_into`](IdSet::sample_into) into a new `Vec`.
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<ProcessId> {
        let mut picks = Vec::new();
        self.sample_into(k, rng, &mut picks);
        picks
    }

    /// Replaces the contents of `picks` with `min(k, len)` distinct members
    /// drawn uniformly at random, in random order; a kept `picks` makes it
    /// allocate nothing.
    ///
    /// A partial Fisher–Yates over member ranks: exactly `min(k, len)`
    /// draws, the `i`-th being `gen_range(i..len)`. A larger `k` lists the
    /// members into `picks` and swaps in place (`O(n/64 + len)`). A small
    /// `k` stores the draws in `picks` and then, from the last pick back,
    /// resolves each by following the earlier draws that displaced its
    /// position and turns the rank into a member with [`select`]
    /// (`O(k·n/64 + k²)`, no member list). Both make the same draws and
    /// return the same picks; the two cost the same near `k = √(len/2)`
    /// (measured for `n` from 96 to 8192), which is where the switch sits.
    ///
    /// [`select`]: IdSet::select
    pub fn sample_into<R: Rng + ?Sized>(&self, k: usize, rng: &mut R, picks: &mut Vec<ProcessId>) {
        picks.clear();
        let len = self.len();
        let k = k.min(len);
        if 2 * k * k > len {
            picks.extend(self.iter());
            for i in 0..k {
                picks.swap(i, rng.gen_range(i..len));
            }
            picks.truncate(k);
            return;
        }
        // Until pick `i` replaces it, `picks[i]` holds draw `j_i`: a
        // position, not a member, stored as a `ProcessId` so that no second
        // buffer is needed. Pick `i` is the rank at position `j_i` after swaps `0..i`,
        // which only the draws below `i` decide: the latest swap `t` that
        // drew a position moved position `t`'s rank there, so follow it back
        // until no earlier draw hit the position.
        picks.extend((0..k).map(|i| ProcessId::new(rng.gen_range(i..len))));
        for i in (0..k).rev() {
            let (mut pos, mut swaps) = (picks[i].as_usize(), i);
            while let Some(t) = picks[..swaps].iter().rposition(|j| j.as_usize() == pos) {
                (pos, swaps) = (t, t);
            }
            picks[i] = self.select(pos).expect("rank below len");
        }
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(ProcessId::new(wi * 64 + b))
                }
            })
        })
    }

    /// In-place union.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &IdSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &IdSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn subtract(&mut self, other: &IdSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `true` if every member of `self` is in `other`.
    pub fn is_subset_of(&self, other: &IdSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if the sets share no member.
    pub fn is_disjoint_from(&self, other: &IdSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Members as a sorted vector.
    pub fn to_vec(&self) -> Vec<ProcessId> {
        self.iter().collect()
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<ProcessId> for IdSet {
    /// Collects ids into a set whose universe is the smallest power-of-two
    /// -free bound: the max id + 1. Prefer [`IdSet::from_iter`] with an
    /// explicit universe when interoperating with other sets.
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let ids: Vec<ProcessId> = iter.into_iter().collect();
        let n = ids.iter().map(|p| p.as_usize() + 1).max().unwrap_or(0);
        IdSet::from_iter(n, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = IdSet::empty(130);
        assert!(s.insert(p(0)));
        assert!(s.insert(p(64)));
        assert!(s.insert(p(129)));
        assert!(!s.insert(p(129)), "second insert is a no-op");
        assert!(s.contains(p(64)));
        assert!(!s.contains(p(63)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(p(64)));
        assert!(!s.remove(p(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let s = IdSet::from_iter(200, [p(150), p(3), p(64), p(65)]);
        assert_eq!(s.to_vec(), vec![p(3), p(64), p(65), p(150)]);
    }

    #[test]
    fn set_algebra() {
        let a = IdSet::from_iter(10, [p(1), p(2), p(3)]);
        let b = IdSet::from_iter(10, [p(3), p(4)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![p(3)]);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.to_vec(), vec![p(1), p(2)]);
        assert!(i.is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        let c = IdSet::from_iter(10, [p(7)]);
        assert!(a.is_disjoint_from(&c));
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn full_and_empty() {
        let f = IdSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(!f.is_empty());
        assert!(IdSet::empty(70).is_empty());
        assert!(IdSet::empty(0).is_empty());
        assert_eq!(IdSet::full(0).len(), 0);
        // Whole-word fill leaves no bit set beyond the universe.
        for n in [1, 63, 64, 65, 128, 130] {
            assert_eq!(IdSet::full(n), IdSet::from_iter(n, (0..n).map(p)));
        }
        let mut c = IdSet::full(70);
        c.clear();
        assert_eq!(c, IdSet::empty(70));
        // Filling in place is `full` over the same universe, whatever the
        // set held.
        for n in [0, 1, 63, 64, 65, 130] {
            let mut s = IdSet::from_iter(n, (0..n).step_by(3).map(p));
            s.fill();
            assert_eq!(s, IdSet::full(n));
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        IdSet::empty(4).insert(p(4));
    }

    #[test]
    fn collect_from_iterator() {
        let s: IdSet = [p(2), p(5)].into_iter().collect();
        assert_eq!(s.universe(), 6);
        assert!(s.contains(p(5)));
    }
}
