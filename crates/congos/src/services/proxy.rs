//! The Proxy service (`Proxy[ℓ]`, Figure 9 / Figure 3 of the paper).
//!
//! A process cannot gossip fragments destined for groups it does not belong
//! to — the filter would (rightly) drop the traffic, and receiving replies
//! could leak fragments it must not hold. Instead it *samples proxies*: in
//! round 1 of each iteration it sends, for every other group `a`, the
//! fragments belonging to `a` to `Θ(n^{1+48/√dline}·log n / |collaborators|)`
//! random members of `a` (excluding known failed proxies). A proxy caches
//! the fragments, re-shares them inside its own group via `GroupGossip[ℓ]`
//! during the iteration's gossip rounds, and acknowledges in the final
//! round. Requesters that hear no acknowledgment mark the sampled proxies
//! failed and retry next iteration; group members collaborate by gossiping
//! their `failed-proxies` sets and collaborator beacons, which both shares
//! the discovery work and calibrates the fanout.
//!
//! [PROXY:CONFIDENTIAL] holds by construction: fragment `ρ_{a,ℓ}` is only
//! ever sent to members of group `a`.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;

use congos_gossip::{fanout, FanoutParams};
use congos_sim::{IdSet, ProcessId};

use crate::messages::Fragment;
use crate::node::StateCensus;
use crate::partition::Partition;

/// A proxy request to emit: fragments for one sampled member of another
/// group.
pub(crate) type ProxyRequests = Vec<(ProcessId, Vec<Fragment>)>;

/// Per-partition proxy-service state at one process.
pub(crate) struct ProxyService {
    my_group: u8,
    /// Fragments (for other groups) injected since the current block began;
    /// they become `my_rumors` at the next block boundary.
    waiting: Vec<Fragment>,
    /// Fragments being distributed this block.
    my_rumors: Vec<Fragment>,
    /// `status = active` (the paper's condition: alive long enough and at
    /// least one fragment collected at block start).
    active: bool,
    /// Fanout divisor: the estimate of active collaborators in my group.
    collaborators: usize,
    /// Collaborator beacons heard since the last iteration boundary.
    collab_next: IdSet,
    /// Proxies known (or believed) crashed this block.
    failed_proxies: IdSet,
    /// Requests sent in the current iteration, awaiting acknowledgment.
    outstanding: Vec<ProcessId>,
    /// Other groups for which some proxy acknowledged this block.
    acked_groups: BTreeSet<u8>,
    /// Fragments received as a proxy, pending re-share in my group.
    buffer: Vec<Fragment>,
    /// Requesters to acknowledge at the end of the iteration.
    ack_due: Vec<ProcessId>,
}

impl ProxyService {
    pub(crate) fn new(n: usize, my_group: u8) -> Self {
        ProxyService {
            my_group,
            waiting: Vec::new(),
            my_rumors: Vec::new(),
            active: false,
            collaborators: 1,
            collab_next: IdSet::empty(n),
            failed_proxies: IdSet::empty(n),
            outstanding: Vec::new(),
            acked_groups: BTreeSet::new(),
            buffer: Vec::new(),
            ack_due: Vec::new(),
        }
    }

    /// Queues a fragment (destined for another group) for the next block.
    pub(crate) fn inject(&mut self, fragment: Fragment) {
        debug_assert_ne!(fragment.group, self.my_group);
        self.waiting.push(fragment);
    }

    /// `true` if this service still has distribution work this block.
    #[cfg(test)]
    pub(crate) fn is_active(&self) -> bool {
        self.active
    }

    /// Block boundary (the paper's "beginning of a block"): collect the
    /// fragments injected since the last block; become active if there are
    /// any and the process has been alive at least a block (`alive_ok`).
    ///
    /// Engineering refinement over Figure 9: fragments whose target group
    /// never acknowledged, and whose rumor is still within its deadline, are
    /// carried over into the next block instead of being dropped — the same
    /// retry rationale as in [`GdService::on_block_start`].
    ///
    /// [`GdService::on_block_start`]: super::group_distribution::GdService::on_block_start
    pub(crate) fn on_block_start(
        &mut self,
        now: congos_sim::Round,
        alive_ok: bool,
        group_len: usize,
    ) {
        let acked = &self.acked_groups;
        self.my_rumors
            .retain(|f| !acked.contains(&f.group) && f.rid.birth + f.dline >= now);
        // `my_rumors` becomes `waiting ++ carried`; both keep their buffers.
        std::mem::swap(&mut self.my_rumors, &mut self.waiting);
        self.my_rumors.append(&mut self.waiting);
        self.acked_groups.clear();
        self.active = alive_ok && !self.my_rumors.is_empty();
        self.collaborators = group_len.max(1);
        self.collab_next.clear();
        self.failed_proxies.clear();
        self.outstanding.clear();
        self.buffer.clear();
        self.ack_due.clear();
    }

    /// Iteration round 1: settle last iteration's unacknowledged requests
    /// into `failed-proxies`, refresh the collaborator estimate, and emit
    /// this iteration's proxy requests.
    pub(crate) fn on_iteration_start(
        &mut self,
        rng: &mut SmallRng,
        n: usize,
        dline: u64,
        partition: &Partition,
        params: FanoutParams,
    ) -> ProxyRequests {
        for p in std::mem::take(&mut self.outstanding) {
            self.failed_proxies.insert(p);
        }
        if !self.collab_next.is_empty() {
            self.collaborators = self.collab_next.len() + 1;
            self.collab_next.clear();
        }
        if !self.active || self.all_groups_served(partition) {
            return Vec::new();
        }
        let mut requests = Vec::new();
        for g in 0..partition.group_count() as u8 {
            if g == self.my_group || self.acked_groups.contains(&g) {
                continue;
            }
            let frags: Vec<Fragment> = self
                .my_rumors
                .iter()
                .filter(|f| f.group == g)
                .cloned()
                .collect();
            if frags.is_empty() {
                continue;
            }
            let mut candidates = partition.group(g).clone();
            candidates.subtract(&self.failed_proxies);
            if candidates.is_empty() {
                // Every known member failed; resample the whole group (they
                // may have restarted).
                self.failed_proxies.clear();
                candidates = partition.group(g).clone();
            }
            let k = fanout(
                params,
                n,
                dline,
                self.collaborators,
                partition.group(g).len() + 1,
            );
            for target in candidates.sample(k, rng) {
                self.outstanding.push(target);
                requests.push((target, frags.clone()));
            }
        }
        requests
    }

    /// Iteration round 2: the payloads to share in my group's
    /// `GroupGossip[ℓ]` — the proxy buffer (fragments received on behalf of
    /// my group) and the failed-proxies set with a collaborator beacon.
    /// Returns `(buffer, failed_proxies)`; empty parts mean nothing to
    /// share.
    pub(crate) fn gossip_payloads(&mut self) -> (Vec<Fragment>, Vec<ProcessId>) {
        let buffer = std::mem::take(&mut self.buffer);
        let failed = if self.active {
            self.failed_proxies.to_vec()
        } else {
            Vec::new()
        };
        (buffer, failed)
    }

    /// Whether to beacon collaborator status this iteration.
    pub(crate) fn beacon(&self) -> bool {
        self.active
    }

    /// Iteration last round: requesters to acknowledge.
    pub(crate) fn acks_due(&mut self) -> Vec<ProcessId> {
        std::mem::take(&mut self.ack_due)
    }

    /// A proxy request arrived: cache the fragments (they belong to my
    /// group) and remember to acknowledge.
    pub(crate) fn on_request(&mut self, src: ProcessId, fragments: &[Fragment]) {
        debug_assert!(fragments.iter().all(|f| f.group == self.my_group));
        self.buffer.extend_from_slice(fragments);
        if !self.ack_due.contains(&src) {
            self.ack_due.push(src);
        }
    }

    /// An acknowledgment arrived from `src`: its group is served this block.
    pub(crate) fn on_ack(&mut self, src: ProcessId, partition: &Partition) {
        self.acked_groups.insert(partition.group_of(src));
        self.outstanding.retain(|p| *p != src);
    }

    /// Group gossip delivered a collaborator beacon and failed-proxy set.
    pub(crate) fn on_meta(&mut self, origin: ProcessId, failed: &[ProcessId]) {
        self.collab_next.insert(origin);
        for p in failed {
            self.failed_proxies.insert(*p);
        }
    }

    /// Adds this service's per-rumor table sizes to `census`.
    pub(crate) fn count(&self, census: &mut StateCensus) {
        census.proxy_waiting += self.waiting.len();
        census.proxy_rumors += self.my_rumors.len();
        census.proxy_buffer += self.buffer.len();
    }

    fn all_groups_served(&self, partition: &Partition) -> bool {
        (0..partition.group_count() as u8)
            .filter(|g| *g != self.my_group)
            .all(|g| self.acked_groups.contains(&g) || !self.my_rumors.iter().any(|f| f.group == g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::CongosRumorId;
    use congos_sim::Round;
    use rand::SeedableRng;

    fn frag(group: u8) -> Fragment {
        Fragment {
            rid: CongosRumorId {
                source: ProcessId::new(0),
                birth: Round(0),
                seq: 0,
            },
            wid: 0,
            partition: 0,
            group,
            k: 2,
            bytes: vec![1, 2, 3].into(),
            dest: IdSet::empty(8).into(),
            dline: 64,
        }
    }

    fn bit_partition(n: usize, ell: u32) -> Partition {
        let assignment = (0..n).map(|i| ProcessId::new(i).bit(ell)).collect();
        Partition::from_assignment(assignment, 2)
    }

    fn params() -> FanoutParams {
        FanoutParams {
            alpha: 1.0,
            gamma: 4.0,
            root: 2,
        }
    }

    #[test]
    fn activation_requires_fragments_and_uptime() {
        let mut p = ProxyService::new(8, 0);
        p.on_block_start(Round(0), true, 4);
        assert!(!p.is_active(), "no fragments, no work");
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 4);
        assert!(p.is_active());
        p.inject(frag(1));
        p.on_block_start(Round(0), false, 4);
        assert!(!p.is_active(), "recently restarted processes wait");
    }

    #[test]
    fn requests_target_only_the_fragments_group() {
        let mut rng = SmallRng::seed_from_u64(1);
        let part = bit_partition(8, 0); // evens group 0, odds group 1
        let mut p = ProxyService::new(8, 0);
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 4);
        let reqs = p.on_iteration_start(&mut rng, 8, 64, &part, params());
        assert!(!reqs.is_empty());
        for (target, frags) in &reqs {
            assert_eq!(part.group_of(*target), 1, "[PROXY:CONFIDENTIAL]");
            assert!(frags.iter().all(|f| f.group == 1));
        }
    }

    #[test]
    fn unacked_proxies_become_failed_and_are_avoided() {
        let mut rng = SmallRng::seed_from_u64(2);
        let part = bit_partition(4, 0); // {0,2} vs {1,3}
        let mut p = ProxyService::new(4, 0);
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 2);
        let reqs1 = p.on_iteration_start(&mut rng, 4, 64, &part, params());
        let asked1: Vec<ProcessId> = reqs1.iter().map(|(t, _)| *t).collect();
        assert!(!asked1.is_empty());
        // No ack arrives; next iteration must avoid the previous targets
        // (both members may have been asked — then the set resets).
        let reqs2 = p.on_iteration_start(&mut rng, 4, 64, &part, params());
        if asked1.len() < 2 {
            for (t, _) in &reqs2 {
                assert!(!asked1.contains(t), "retry must avoid failed proxies");
            }
        } else {
            assert!(!reqs2.is_empty(), "full reset lets it resample everyone");
        }
    }

    #[test]
    fn ack_stops_requests_for_that_group() {
        let mut rng = SmallRng::seed_from_u64(3);
        let part = bit_partition(4, 0);
        let mut p = ProxyService::new(4, 0);
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 2);
        let reqs = p.on_iteration_start(&mut rng, 4, 64, &part, params());
        let (target, _) = &reqs[0];
        p.on_ack(*target, &part);
        let reqs2 = p.on_iteration_start(&mut rng, 4, 64, &part, params());
        assert!(reqs2.is_empty(), "group served, no more requests");
        assert!(p.all_groups_served(&part));
    }

    #[test]
    fn proxy_side_buffers_and_acks() {
        let mut p = ProxyService::new(8, 1);
        p.on_block_start(Round(0), true, 4);
        p.on_request(ProcessId::new(0), &[frag(1), frag(1)]);
        p.on_request(ProcessId::new(2), &[frag(1)]);
        p.on_request(ProcessId::new(0), &[frag(1)]);
        let (buffer, _) = p.gossip_payloads();
        assert_eq!(buffer.len(), 4);
        let acks = p.acks_due();
        assert_eq!(acks, vec![ProcessId::new(0), ProcessId::new(2)]);
        assert!(p.acks_due().is_empty(), "drained");
    }

    #[test]
    fn collaborator_beacons_scale_down_fanout() {
        let mut rng = SmallRng::seed_from_u64(4);
        let part = bit_partition(64, 0);
        let mut p = ProxyService::new(64, 0);
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 32);
        // Hear 15 collaborators.
        for i in 0..15 {
            p.on_meta(ProcessId::new(i * 2), &[]);
        }
        let _ = p.on_iteration_start(&mut rng, 64, 64, &part, params());
        assert_eq!(p.collaborators, 16);
    }

    #[test]
    fn shared_failed_proxies_are_excluded() {
        let mut rng = SmallRng::seed_from_u64(5);
        let part = bit_partition(4, 0);
        let mut p = ProxyService::new(4, 0);
        p.inject(frag(1));
        p.on_block_start(Round(0), true, 2);
        p.on_meta(ProcessId::new(2), &[ProcessId::new(1)]);
        let reqs = p.on_iteration_start(&mut rng, 4, 64, &part, params());
        for (t, _) in &reqs {
            assert_eq!(*t, ProcessId::new(3), "p1 was reported failed");
        }
    }
}
