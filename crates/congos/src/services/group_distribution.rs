//! The GroupDistribution service (`GroupDistribution[ℓ]`, Figure 10 /
//! Figure 4 of the paper).
//!
//! Once fragment `ρ_{g,ℓ}` has spread through group `g` (via `GroupGossip`
//! for the source's own group, via the Proxy service for the others), the
//! members of `g` collaborate to deliver it to the rumor's destinations *in
//! the other groups* (destinations inside `g` already received it with the
//! group spread). Each iteration, every active member sends the
//! "appropriate" fragments — only those whose destination set contains the
//! target — to `Θ(n^{1+48/√dline}·log n / |collaborators|)` random processes
//! outside its group that are not yet in the shared `hitSet`; members then
//! gossip their `hitSet`s so the group collectively tracks coverage. At the
//! end of the block, each member publishes a *sanitized* version of its
//! `hitSet` (identities only, no fragment bytes) through `AllGossip`, which
//! is what lets sources confirm delivery without anyone revealing rumor
//! contents.
//!
//! [GD:CONFIDENTIAL] holds by construction: a fragment is only ever sent to
//! a member of its rumor's destination set.

use std::collections::HashSet;

use rand::rngs::SmallRng;

use congos_gossip::{fanout, FanoutParams};
use congos_sim::{IdSet, ProcessId, Round};

use crate::messages::Fragment;
use crate::node::StateCensus;
use crate::partition::Partition;
use crate::rumor::CongosRumorId;

/// Fragment deliveries to emit this round: `(destination, fragments)`.
pub(crate) type GdSends = Vec<(ProcessId, Vec<Fragment>)>;

/// Per-partition group-distribution state at one process.
pub(crate) struct GdService {
    my_group: u8,
    /// Fragments delivered by the group spread since the block began
    /// (drained at the boundary, capacity kept).
    waiting: Vec<Fragment>,
    /// This block's fragments to distribute, one per rumor, in rid order
    /// (retained in place across blocks).
    partials: Vec<Fragment>,
    active: bool,
    /// `(target, rumor)` pairs this group has served (own + gossiped).
    hit_set: HashSet<(ProcessId, CongosRumorId)>,
    /// Processes appearing in `hit_set` (excluded from future sampling).
    hit_procs: IdSet,
    /// Sampled processes that matched no fragment (local optimization: they
    /// are skipped in later sampling; see module docs in `confidential.rs`).
    irrelevant: IdSet,
    collaborators: usize,
    collab_next: IdSet,
    /// The processes a send round may sample, refilled in place each time.
    candidates: IdSet,
    /// A send round's sampled targets (capacity kept).
    picks: Vec<ProcessId>,
}

impl GdService {
    pub(crate) fn new(n: usize, my_group: u8) -> Self {
        GdService {
            my_group,
            waiting: Vec::new(),
            partials: Vec::new(),
            active: false,
            hit_set: HashSet::new(),
            hit_procs: IdSet::empty(n),
            irrelevant: IdSet::empty(n),
            collaborators: 1,
            collab_next: IdSet::empty(n),
            candidates: IdSet::empty(n),
            picks: Vec::new(),
        }
    }

    /// Queues a fragment of my group for distribution next block.
    pub(crate) fn inject(&mut self, fragment: Fragment) {
        debug_assert_eq!(fragment.group, self.my_group);
        self.waiting.push(fragment);
    }

    /// `true` if the service is distributing this block.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Block boundary (the paper's "beginning of the second round of a
    /// block"): collect waiting fragments; become active if the process has
    /// been alive for at least `2·dline/3` rounds (`alive_ok`).
    ///
    /// Engineering refinement over Figure 10: fragments whose rumor is still
    /// within its deadline are *carried over* to the next block instead of
    /// being dropped — at laptop-scale fanouts a block's iterations may not
    /// cover every destination, and retrying (with a fresh hit-set) only
    /// re-sends to destination-set members, so neither confidentiality nor
    /// the complexity shape changes; without it, under-covered blocks would
    /// push rumors to the deadline fallback far more often than the paper's
    /// asymptotic constants would.
    pub(crate) fn on_block_start(&mut self, now: Round, alive_ok: bool, group_len: usize) {
        self.partials.retain(|f| f.rid.birth + f.dline >= now);
        self.active = alive_ok;
        if self.active {
            // A collected fragment replaces a carried one of its rumor.
            for f in self.waiting.drain(..) {
                match self.partials.binary_search_by_key(&f.rid, |p| p.rid) {
                    Ok(i) => self.partials[i] = f,
                    Err(i) => self.partials.insert(i, f),
                }
            }
        } else {
            // Not yet eligible: keep the fragments for the next block,
            // collected first, then the carried ones in rid order.
            self.waiting.append(&mut self.partials);
        }
        self.hit_set.clear();
        self.hit_procs.clear();
        self.irrelevant.clear();
        self.collaborators = group_len.max(1);
        self.collab_next.clear();
    }

    /// Iteration round 2: sample unserved targets and send each the
    /// fragments whose destination set contains it.
    ///
    /// Figure 10 samples from the *opposite* group only, counting on the
    /// group spread to cover same-group destinations — but the confirmation
    /// rule of Figure 8 checks hit-sets for *every* destination, and the
    /// spread is not recorded in any hit-set. Sampling over all processes
    /// makes the recorded hit-sets a sound witness of delivery (no fragment
    /// goes anywhere new: targets still receive only fragments whose
    /// destination set contains them — [GD:CONFIDENTIAL] unchanged).
    pub(crate) fn on_send_round(
        &mut self,
        rng: &mut SmallRng,
        n: usize,
        dline: u64,
        partition: &Partition,
        params: FanoutParams,
    ) -> GdSends {
        if !self.collab_next.is_empty() {
            self.collaborators = self.collab_next.len() + 1;
            self.collab_next.clear();
        }
        if !self.active || self.partials.is_empty() {
            return Vec::new();
        }
        self.candidates.fill();
        self.candidates.subtract(&self.hit_procs);
        self.candidates.subtract(&self.irrelevant);
        let other_side = n - partition.group(self.my_group).len();
        let k = fanout(params, n, dline, self.collaborators, other_side + 1);
        self.candidates.sample_into(k, rng, &mut self.picks);
        let mut sends = Vec::new();
        for &target in &self.picks {
            let appropriate: Vec<Fragment> = self
                .partials
                .iter()
                .filter(|f| f.dest.contains(target))
                .cloned()
                .collect();
            if appropriate.is_empty() {
                self.irrelevant.insert(target);
                continue;
            }
            for f in &appropriate {
                self.hit_set.insert((target, f.rid));
            }
            self.hit_procs.insert(target);
            sends.push((target, appropriate));
        }
        sends
    }

    /// Iteration round 3: the hit-set share to gossip in my group, if the
    /// service has anything to report or count.
    pub(crate) fn gossip_share(&self) -> Option<Vec<(ProcessId, CongosRumorId)>> {
        if !self.active || (self.partials.is_empty() && self.hit_set.is_empty()) {
            return None;
        }
        Some(self.sorted_hits())
    }

    /// Group gossip delivered a peer's hit-set share.
    pub(crate) fn on_share(&mut self, origin: ProcessId, hits: &[(ProcessId, CongosRumorId)]) {
        self.collab_next.insert(origin);
        for (p, rid) in hits {
            self.hit_set.insert((*p, *rid));
            self.hit_procs.insert(*p);
        }
    }

    /// Adds this service's per-rumor table sizes to `census`.
    pub(crate) fn count(&self, census: &mut StateCensus) {
        census.gd_waiting += self.waiting.len();
        census.gd_partials += self.partials.len();
        census.gd_hits += self.hit_set.len();
    }

    /// Last round of the block: the sanitized hit-set to publish through
    /// `AllGossip` (identities only — this is the paper's confirmation
    /// metadata).
    pub(crate) fn end_of_block(&self) -> Option<Vec<(ProcessId, CongosRumorId)>> {
        if !self.active || self.hit_set.is_empty() {
            return None;
        }
        Some(self.sorted_hits())
    }

    /// The hit-set in `(target, rumor)` order, so that what is gossiped does
    /// not depend on the hash set's iteration order.
    fn sorted_hits(&self) -> Vec<(ProcessId, CongosRumorId)> {
        let mut hits: Vec<(ProcessId, CongosRumorId)> = self.hit_set.iter().copied().collect();
        hits.sort_unstable_by_key(|(p, rid)| (*p, rid.source, rid.birth, rid.seq));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::Round;
    use rand::{Rng, SeedableRng};

    fn rid(src: usize) -> CongosRumorId {
        CongosRumorId {
            source: ProcessId::new(src),
            birth: Round(0),
            seq: 0,
        }
    }

    fn frag(src: usize, group: u8, dest: &[usize], n: usize) -> Fragment {
        Fragment {
            rid: rid(src),
            wid: src as u64,
            partition: 0,
            group,
            k: 2,
            bytes: vec![9].into(),
            dest: IdSet::from_iter(n, dest.iter().map(|i| ProcessId::new(*i))).into(),
            dline: 64,
        }
    }

    fn bit_partition(n: usize) -> Partition {
        let assignment = (0..n).map(|i| ProcessId::new(i).bit(0)).collect();
        Partition::from_assignment(assignment, 2)
    }

    fn params() -> FanoutParams {
        FanoutParams {
            alpha: 4.0,
            gamma: 4.0,
            root: 2,
        }
    }

    #[test]
    fn sends_only_appropriate_fragments_to_other_group() {
        let n = 8;
        let part = bit_partition(n); // evens 0, odds 1
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1, 3], n)); // dests odd (other group)
        gd.inject(frag(2, 0, &[5], n));
        gd.on_block_start(Round(0), true, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        // Run enough send rounds to hit everyone.
        let mut seen: Vec<(ProcessId, Vec<Fragment>)> = Vec::new();
        for _ in 0..20 {
            seen.extend(gd.on_send_round(&mut rng, n, 64, &part, params()));
        }
        assert!(!seen.is_empty());
        for (target, frags) in &seen {
            assert_eq!(part.group_of(*target), 1, "cross-group only");
            for f in frags {
                assert!(f.dest.contains(*target), "[GD:CONFIDENTIAL]");
            }
        }
        // Eventually every destination was hit.
        let hit: Vec<ProcessId> = seen.iter().map(|(t, _)| *t).collect();
        for d in [1usize, 3, 5] {
            assert!(hit.contains(&ProcessId::new(d)), "p{d} never hit");
        }
    }

    #[test]
    fn hit_processes_are_not_resampled() {
        let n = 8;
        let part = bit_partition(n);
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1, 3, 5, 7], n));
        gd.on_block_start(Round(0), true, 4);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut targets: Vec<ProcessId> = Vec::new();
        for _ in 0..20 {
            for (t, _) in gd.on_send_round(&mut rng, n, 64, &part, params()) {
                assert!(!targets.contains(&t), "p{t} hit twice");
                targets.push(t);
            }
        }
        assert_eq!(targets.len(), 4);
    }

    #[test]
    fn one_target_costs_one_draw() {
        // At the clamp floor (fanout 1) a send round advances the generator
        // by one `gen_range` over the candidates, never by a shuffle of all
        // `n` processes.
        let n = 1024;
        let part = bit_partition(n);
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1], n));
        gd.on_block_start(Round(0), true, n / 2);
        gd.on_share(ProcessId::new(2), &[(ProcessId::new(7), rid(0))]);
        let floor = FanoutParams {
            alpha: 1e-9,
            gamma: 0.0,
            root: 2,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let mut one_draw = rng.clone();
        one_draw.gen_range(0..n - 1); // p7 is hit: 1023 candidates
        assert!(gd.on_send_round(&mut rng, n, 64, &part, floor).len() <= 1);
        assert_eq!(rng, one_draw);
    }

    #[test]
    fn inactive_service_holds_fragments_for_next_block() {
        let n = 4;
        let part = bit_partition(n);
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1], n));
        gd.on_block_start(Round(0), false, 2); // recently restarted
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(gd
            .on_send_round(&mut rng, n, 64, &part, params())
            .is_empty());
        assert!(!gd.is_active());
        // Next block it is eligible and the fragment is still there.
        gd.on_block_start(Round(0), true, 2);
        let mut sent = Vec::new();
        for _ in 0..8 {
            sent.extend(gd.on_send_round(&mut rng, n, 64, &part, params()));
        }
        assert!(sent.iter().any(|(t, _)| *t == ProcessId::new(1)));
    }

    #[test]
    fn shares_merge_and_dedupe_coverage() {
        let n = 8;
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1], n));
        gd.on_block_start(Round(0), true, 4);
        gd.on_share(ProcessId::new(2), &[(ProcessId::new(1), rid(0))]);
        // p1 was already served by a group-mate: no send should target p1.
        let part = bit_partition(n);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10 {
            for (t, _) in gd.on_send_round(&mut rng, n, 64, &part, params()) {
                assert_ne!(t, ProcessId::new(1));
            }
        }
        // And the merged hit appears in the sanitized end-of-block report.
        let hits = gd.end_of_block().unwrap();
        assert!(hits.contains(&(ProcessId::new(1), rid(0))));
    }

    #[test]
    fn gossip_share_requires_content() {
        let n = 4;
        let mut gd = GdService::new(n, 0);
        gd.on_block_start(Round(0), true, 2);
        assert!(gd.gossip_share().is_none(), "nothing to share or count");
        assert!(gd.end_of_block().is_none());
    }

    #[test]
    fn collaborator_estimate_follows_shares() {
        let n = 16;
        let part = bit_partition(n);
        let mut gd = GdService::new(n, 0);
        gd.inject(frag(0, 0, &[1], n));
        gd.on_block_start(Round(0), true, 8);
        assert_eq!(gd.collaborators, 8, "initial estimate: whole group");
        gd.on_share(ProcessId::new(2), &[]);
        gd.on_share(ProcessId::new(4), &[]);
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = gd.on_send_round(&mut rng, n, 64, &part, params());
        assert_eq!(gd.collaborators, 3, "2 peers + self");
    }
}
