//! Process partitions.
//!
//! CONGOS distributes each fragment of a rumor to one *group* of a
//! *partition* of the processes:
//!
//! * the base algorithm uses `⌈log n⌉` **bit partitions** — partition `ℓ`
//!   splits processes by the `ℓ`-th bit of their id. Lemma 5: any two
//!   distinct processes are separated by some bit partition, so as long as
//!   the source and one destination survive, some partition still "works";
//! * the collusion-tolerant variant (Section 6.2) uses `c·τ·log n` **random
//!   partitions** of `τ+1` groups each, satisfying
//!   *Partition-Property 1* (every group non-empty) and
//!   *Partition-Property 2* (for every set `S` of `≥ 2c'τ log n` processes,
//!   some partition has a member of `S` in every group). Lemma 13 proves
//!   such partitions exist by the probabilistic method; the paper leaves a
//!   deterministic poly-time construction open, so we construct them the way
//!   the proof does — sample uniformly and verify — resampling until
//!   Property 1 holds exactly (Property 2 then holds w.h.p. and is
//!   spot-checked by randomized tests; see DESIGN.md §3.4).
//!
//! All processes must agree on the partition set, so it is derived
//! deterministically from configuration (`n`, `τ`, a shared seed) — "given
//! as part of the input of the algorithm", as the paper puts it. Being a
//! pure function of its inputs, each agreed table is built once per OS
//! process by [`PartitionSet::agreed`]: every node holds an `Arc` to it, and
//! the table dies with its last node.

use std::sync::{Arc, Mutex, PoisonError, Weak};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use congos_sim::{IdSet, ProcessId};

use crate::config::{CongosConfig, PartitionScheme};

/// One partition of `[n]` into `k` disjoint, exhaustive, non-empty groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u8>,
    groups: Vec<IdSet>,
}

impl Partition {
    /// Builds a partition from a group assignment (`assignment[p] = group`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > 256`, or some entry is `≥ k`.
    pub fn from_assignment(assignment: Vec<u8>, k: usize) -> Self {
        assert!((1..=256).contains(&k), "group count must be in 1..=256");
        let n = assignment.len();
        let mut groups = vec![IdSet::empty(n); k];
        for (i, g) in assignment.iter().enumerate() {
            assert!((*g as usize) < k, "assignment out of range");
            groups[*g as usize].insert(ProcessId::new(i));
        }
        Partition { assignment, groups }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group index of process `p`.
    pub fn group_of(&self, p: ProcessId) -> u8 {
        self.assignment[p.as_usize()]
    }

    /// Members of group `g`.
    pub fn group(&self, g: u8) -> &IdSet {
        &self.groups[g as usize]
    }

    /// `true` if every group is non-empty (Partition-Property 1).
    pub fn well_formed(&self) -> bool {
        self.groups.iter().all(|g| !g.is_empty())
    }

    /// `true` if every group contains a member of `survivors`
    /// (the per-partition condition of Partition-Property 2).
    pub fn covers(&self, survivors: &IdSet) -> bool {
        self.groups.iter().all(|g| !g.is_disjoint_from(survivors))
    }
}

/// The agreed-upon set of partitions used by one protocol configuration.
///
/// ```
/// use congos::PartitionSet;
/// use congos_sim::ProcessId;
///
/// let ps = PartitionSet::bits(16);
/// // Lemma 5: some partition separates any two distinct processes.
/// assert!(ps.separating(ProcessId::new(3), ProcessId::new(11)).is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSet {
    partitions: Vec<Partition>,
    k: usize,
    n: usize,
}

impl PartitionSet {
    /// The base algorithm's `⌈log₂ n⌉` bit partitions of 2 groups each
    /// (partition `ℓ` groups processes by bit `ℓ` of their id).
    ///
    /// For `n = 1` the set is empty — a single process needs no partitions
    /// (every rumor destination is the source itself).
    pub fn bits(n: usize) -> Self {
        let ell_max = if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        };
        let partitions = (0..ell_max)
            .map(|ell| {
                let assignment = (0..n).map(|i| ProcessId::new(i).bit(ell)).collect();
                Partition::from_assignment(assignment, 2)
            })
            .filter(Partition::well_formed)
            .collect();
        PartitionSet {
            partitions,
            k: 2,
            n,
        }
    }

    /// The collusion-tolerant variant's `⌈c·τ·log₂ n⌉` random partitions of
    /// `τ+1` groups each, sampled as in the proof of Lemma 13 and resampled
    /// until Partition-Property 1 holds.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`, or if `tau + 1 > n` (the groups could never all
    /// be non-empty).
    pub fn random(n: usize, tau: usize, c: f64, seed: u64) -> Self {
        assert!(tau >= 1, "collusion tolerance τ must be ≥ 1");
        let k = tau + 1;
        assert!(
            k <= n,
            "cannot split {n} processes into {k} non-empty groups"
        );
        let lg = (n.max(2) as f64).log2();
        let count = (c * tau as f64 * lg).ceil().max(1.0) as usize;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a47_1710);
        let partitions = (0..count)
            .map(|_| loop {
                let assignment: Vec<u8> = (0..n).map(|_| rng.gen_range(0..k) as u8).collect();
                let p = Partition::from_assignment(assignment, k);
                if p.well_formed() {
                    break p;
                }
            })
            .collect();
        PartitionSet { partitions, k, n }
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// `true` if there are no partitions (only for `n = 1`).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Groups per partition (`2` for bit partitions, `τ+1` for random).
    pub fn groups_per_partition(&self) -> usize {
        self.k
    }

    /// Universe size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `ℓ`-th partition.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is out of range.
    pub fn partition(&self, ell: usize) -> &Partition {
        &self.partitions[ell]
    }

    /// Iterates `(ℓ, partition)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Partition)> {
        self.partitions.iter().enumerate()
    }

    /// Returns some partition index separating `a` and `b` into different
    /// groups, if one exists (Lemma 5 guarantees one for bit partitions
    /// whenever `a ≠ b`).
    pub fn separating(&self, a: ProcessId, b: ProcessId) -> Option<usize> {
        self.iter()
            .find(|(_, p)| p.group_of(a) != p.group_of(b))
            .map(|(ell, _)| ell)
    }

    /// Returns some partition index where every group intersects
    /// `survivors` (the partition Property 2 promises for large survivor
    /// sets).
    pub fn covering(&self, survivors: &IdSet) -> Option<usize> {
        self.iter()
            .find(|(_, p)| p.covers(survivors))
            .map(|(ell, _)| ell)
    }
}

/// Every input of an agreed table's build.
#[derive(Clone, Copy, PartialEq, Eq)]
struct AgreedKey {
    n: usize,
    /// `None` for bit partitions, else the random scheme's `(c.to_bits(),
    /// seed)`.
    random: Option<(u64, u64)>,
    tau: usize,
    max_partitions: Option<usize>,
    degenerate: bool,
}

/// The agreed tables alive in this process, by their inputs.
static AGREED: Mutex<Vec<(AgreedKey, Weak<PartitionSet>)>> = Mutex::new(Vec::new());

impl PartitionSet {
    /// The partition set every process of an `n`-process deployment of
    /// `cfg` agrees on: bit or random partitions by `cfg.scheme`, none in
    /// the degenerate collusion regime (Section 6.2 sends everything
    /// directly), and at most `cfg.max_partitions` of them (an ablation;
    /// the paper's adaptive-adversary guarantees need the full set).
    ///
    /// Nodes of one OS process share the table: while some node holds it,
    /// every call with the same inputs returns the same `Arc`.
    ///
    /// # Panics
    ///
    /// Panics as [`PartitionSet::random`] does on an invalid `τ`; a
    /// configuration that passes `cfg.validate(n)` never panics.
    pub fn agreed(n: usize, cfg: &CongosConfig) -> Arc<PartitionSet> {
        let key = AgreedKey {
            n,
            random: match cfg.scheme {
                PartitionScheme::Bits => None,
                PartitionScheme::Random { c, seed } => Some((c.to_bits(), seed)),
            },
            tau: cfg.tau,
            max_partitions: cfg.max_partitions,
            degenerate: cfg.degenerate_collusion(n),
        };
        // A build that panics (an invalid τ) leaves the memo valid: an
        // entry is pushed only once its table is built.
        let mut memo = AGREED.lock().unwrap_or_else(PoisonError::into_inner);
        memo.retain(|(_, table)| table.strong_count() > 0);
        if let Some(table) = memo
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, table)| table.upgrade())
        {
            return table;
        }
        let mut set = match cfg.scheme {
            PartitionScheme::Bits => PartitionSet::bits(n),
            // τ ≥ n/log²n: the algorithm abandons the pipeline and sends
            // everything directly (Section 6.2).
            PartitionScheme::Random { .. } if key.degenerate => PartitionSet::bits(0),
            PartitionScheme::Random { c, seed } => PartitionSet::random(n, cfg.tau, c, seed),
        };
        if let Some(cap) = cfg.max_partitions {
            set.partitions.truncate(cap);
        }
        let table = Arc::new(set);
        memo.push((key, Arc::downgrade(&table)));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_partitions_are_well_formed() {
        for n in [2usize, 3, 5, 8, 17, 64, 100, 128] {
            let ps = PartitionSet::bits(n);
            assert!(!ps.is_empty(), "n={n}");
            for (_, p) in ps.iter() {
                assert!(p.well_formed(), "n={n}");
                assert_eq!(p.group(0).len() + p.group(1).len(), n);
                assert!(p.group(0).is_disjoint_from(p.group(1)));
            }
        }
    }

    #[test]
    fn lemma5_some_partition_separates_any_pair() {
        for n in [2usize, 7, 32, 100] {
            let ps = PartitionSet::bits(n);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    assert!(
                        ps.separating(ProcessId::new(a), ProcessId::new(b))
                            .is_some(),
                        "n={n}: no partition separates {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_process_has_no_partitions() {
        assert!(PartitionSet::bits(1).is_empty());
    }

    #[test]
    fn random_partitions_satisfy_property_1() {
        let ps = PartitionSet::random(64, 3, 2.0, 7);
        assert_eq!(ps.groups_per_partition(), 4);
        assert_eq!(ps.len(), (2.0 * 3.0 * 6.0_f64).ceil() as usize);
        for (_, p) in ps.iter() {
            assert!(p.well_formed());
            let total: usize = (0..4).map(|g| p.group(g).len()).sum();
            assert_eq!(total, 64);
        }
    }

    #[test]
    fn random_partitions_property_2_spot_check() {
        // Lemma 13's Property 2: for every survivor set of size ≥ 2c'τ log n
        // some partition has a survivor in each group. Exhaustive checking is
        // exponential; we spot-check many random survivor sets.
        let n = 64;
        let tau = 3;
        let ps = PartitionSet::random(n, tau, 4.0, 11);
        let s_size = (2.0 * tau as f64 * (n as f64).log2()).ceil() as usize; // c'=1
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200 {
            let mut survivors = IdSet::empty(n);
            while survivors.len() < s_size.min(n) {
                survivors.insert(ProcessId::new(rng.gen_range(0..n)));
            }
            assert!(
                ps.covering(&survivors).is_some(),
                "no covering partition for {survivors:?}"
            );
        }
    }

    #[test]
    fn partitions_are_deterministic_for_a_seed() {
        let a = PartitionSet::random(32, 2, 2.0, 5);
        let b = PartitionSet::random(32, 2, 2.0, 5);
        assert_eq!(a, b, "all processes must derive identical partitions");
        let c = PartitionSet::random(32, 2, 2.0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn group_of_matches_groups() {
        let ps = PartitionSet::random(20, 2, 2.0, 1);
        for (_, p) in ps.iter() {
            for i in 0..20 {
                let pid = ProcessId::new(i);
                let g = p.group_of(pid);
                assert!(p.group(g).contains(pid));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_groups_panics() {
        let _ = PartitionSet::random(3, 5, 1.0, 0);
    }
}
