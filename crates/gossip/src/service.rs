//! The embeddable continuous-gossip service.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rand::rngs::SmallRng;

use congos_sim::{IdSet, ProcessId, Round, Tag};

use crate::expander::{expander_targets, GossipStrategy};
use crate::fanout::{fanout, FanoutParams};
use crate::rumor::{GossipRumor, RumorId};

/// Wire messages of one gossip instance.
///
/// The push batch is `Arc`-shared: one round's batch is identical across
/// all of a process's push targets, so the envelope clone is a refcount
/// bump rather than a deep copy (at `n` processes × fanout targets × many
/// active rumors, deep copies dominate memory otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GossipWire<T> {
    /// Epidemic push of a batch of active rumors (one envelope, arbitrarily
    /// many rumors — the model allows unbounded message size and gossip
    /// protocols gain their efficiency from exactly this merging).
    Push(Arc<Vec<GossipRumor<T>>>),
    /// Acknowledgment of delivered rumors, sent to each rumor's origin.
    Ack(Vec<RumorId>),
}

/// Configuration of one gossip instance.
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// The instance's *filter*: only members may be addressed, and traffic
    /// from non-members is ignored. `IdSet::full(n)` yields the unfiltered
    /// `AllGossip` instance.
    pub membership: IdSet,
    /// Fanout formula parameters.
    pub fanout: FanoutParams,
    /// Target selection: randomized epidemic or the deterministic
    /// expander schedule (the de-randomized [13] mode).
    pub strategy: GossipStrategy,
    /// Tag under which this instance's traffic is metered.
    pub tag: Tag,
}

impl GossipConfig {
    /// An unfiltered instance over all `n` processes (the paper's
    /// `AllGossip`).
    pub fn all(n: usize, tag: Tag) -> Self {
        GossipConfig {
            membership: IdSet::full(n),
            fanout: FanoutParams::continuous_gossip(),
            strategy: GossipStrategy::Random,
            tag,
        }
    }

    /// A filtered instance restricted to `membership` (the paper's
    /// `GroupGossip[ℓ]` behind `Filter[ℓ]`).
    pub fn group(membership: IdSet, tag: Tag) -> Self {
        GossipConfig {
            membership,
            fanout: FanoutParams::continuous_gossip(),
            strategy: GossipStrategy::Random,
            tag,
        }
    }

    /// Overrides the fanout parameters.
    pub fn fanout(mut self, params: FanoutParams) -> Self {
        self.fanout = params;
        self
    }

    /// Selects the target-selection strategy.
    pub fn strategy(mut self, strategy: GossipStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

struct OwnRumor<T> {
    rumor: GossipRumor<T>,
    unacked: IdSet,
}

/// One process's endpoint of a continuous-gossip instance.
///
/// Embed one per partition side (plus `AllGossip`); call
/// [`inject`](ContinuousGossip::inject) to gossip a rumor,
/// [`step`](ContinuousGossip::step) once per round in the host's send phase,
/// [`on_receive`](ContinuousGossip::on_receive) for every incoming wire
/// message, and [`take_delivered`](ContinuousGossip::take_delivered) in the
/// compute phase.
pub struct ContinuousGossip<T> {
    me: ProcessId,
    n: usize,
    cfg: GossipConfig,
    /// `cfg.membership \ {me}`: the processes a push may be addressed to.
    peers: IdSet,
    /// `cfg.membership.len()`, the group size of the fanout formula.
    group_size: usize,
    last_inject_round: Round,
    next_seq: u32,
    /// Rumors this process actively forwards.
    active: BTreeMap<RumorId, GossipRumor<T>>,
    /// Dedup set with the round after which each entry may be dropped.
    seen: HashMap<RumorId, Round>,
    /// Rumors this process injected and still tracks for acknowledgment.
    own: BTreeMap<RumorId, OwnRumor<T>>,
    /// Acks queued for the next send phase, grouped by destination.
    pending_acks: BTreeMap<ProcessId, Vec<RumorId>>,
    /// Rumors delivered to this process, awaiting pickup by the host.
    delivered: Vec<GossipRumor<T>>,
    /// Collaborators heard from in the previous round (plus self).
    collab_est: usize,
    collab_this_round: IdSet,
    /// Count of fallback direct-sends performed (observable for Lemma 10
    /// style "fallback is rare" experiments).
    fallbacks: u64,
}

impl<T: Clone> ContinuousGossip<T> {
    /// Creates the endpoint for process `me` in a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of the instance (a filtered instance
    /// only runs on its members).
    pub fn new(me: ProcessId, n: usize, cfg: GossipConfig) -> Self {
        assert!(
            cfg.membership.contains(me),
            "{me} is not a member of this gossip instance"
        );
        let mut peers = cfg.membership.clone();
        peers.remove(me);
        ContinuousGossip {
            me,
            n,
            group_size: cfg.membership.len(),
            cfg,
            peers,
            last_inject_round: Round::ZERO,
            next_seq: 0,
            active: BTreeMap::new(),
            seen: HashMap::new(),
            own: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
            delivered: Vec::new(),
            collab_est: 1,
            collab_this_round: IdSet::empty(n),
            fallbacks: 0,
        }
    }

    /// Number of deadline-fallback direct sends performed so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Injects a rumor at round `now` with deadline duration `duration` and
    /// destination set `dest`. Destinations outside the membership are
    /// unreachable through this instance (the filter drops such traffic) and
    /// are not tracked for acknowledgment.
    ///
    /// If the injector itself is in `dest`, the rumor is delivered locally
    /// immediately.
    pub fn inject(&mut self, now: Round, payload: T, duration: u64, dest: IdSet) -> RumorId {
        self.inject_opts(now, payload, duration, dest, false)
    }

    /// Injects a best-effort rumor: epidemic forwarding and delivery as
    /// usual, but no acknowledgment tracking and no deadline fallback —
    /// see [`GossipRumor::best_effort`].
    pub fn inject_best_effort(
        &mut self,
        now: Round,
        payload: T,
        duration: u64,
        dest: IdSet,
    ) -> RumorId {
        self.inject_opts(now, payload, duration, dest, true)
    }

    fn inject_opts(
        &mut self,
        now: Round,
        payload: T,
        duration: u64,
        dest: IdSet,
        best_effort: bool,
    ) -> RumorId {
        if now != self.last_inject_round {
            self.last_inject_round = now;
            self.next_seq = 0;
        }
        let id = RumorId {
            origin: self.me,
            birth: now,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let rumor = GossipRumor {
            id,
            payload,
            duration,
            deadline: now + duration,
            dest: Arc::new(dest),
            best_effort,
        };
        self.seen.insert(id, rumor.deadline);
        if rumor.dest.contains(self.me) {
            self.delivered.push(rumor.clone());
        }
        if !best_effort {
            let mut unacked = IdSet::clone(&rumor.dest);
            unacked.intersect_with(&self.cfg.membership);
            unacked.remove(self.me);
            self.own.insert(
                id,
                OwnRumor {
                    rumor: rumor.clone(),
                    unacked,
                },
            );
        }
        self.active.insert(id, rumor);
        id
    }

    /// Send phase: returns this round's outgoing wire messages. Every
    /// destination is a member of the instance — the filter by construction.
    pub fn step(&mut self, now: Round, rng: &mut SmallRng) -> Vec<(ProcessId, GossipWire<T>)> {
        let mut out: Vec<(ProcessId, GossipWire<T>)> = Vec::new();

        // Drop expired rumors from the forwarding set.
        self.active.retain(|_, r| r.active_at(now));
        // Prune the dedup map once it outgrows a small bound. The retain
        // predicate is the receive horizon (a rumor can arrive no later
        // than its deadline-fallback round `dl + 1`, processed at
        // `now = dl + 1 < dl + 2`), so pruning earlier or more often is
        // behavior-neutral — it only caps the map near the live window
        // instead of letting every instance hold thousands of dead ids.
        if self.seen.len() > 256 {
            self.seen.retain(|_, dl| *dl + 2 >= now);
        }

        // Acks queued from last round's deliveries.
        for (dst, ids) in std::mem::take(&mut self.pending_acks) {
            out.push((dst, GossipWire::Ack(ids)));
        }

        // Deadline fallback: for own rumors whose deadline is this round,
        // send directly to every unacknowledged destination. This is what
        // makes Quality of Delivery hold with probability 1.
        let expiring: Vec<RumorId> = self
            .own
            .iter()
            .filter(|(_, o)| o.rumor.deadline == now)
            .map(|(id, _)| *id)
            .collect();
        for id in expiring {
            let o = self.own.remove(&id).expect("present");
            let single = Arc::new(vec![o.rumor.clone()]);
            for dst in o.unacked.iter() {
                self.fallbacks += 1;
                out.push((dst, GossipWire::Push(Arc::clone(&single))));
            }
        }
        self.own.retain(|_, o| o.rumor.deadline > now);

        // Epidemic push of all active rumors, to random members or along
        // the deterministic expander schedule.
        if !self.active.is_empty() {
            let dmin = self
                .active
                .values()
                .map(|r| r.duration)
                .min()
                .unwrap_or(1)
                .max(1);
            let k = fanout(
                self.cfg.fanout,
                self.n,
                dmin,
                self.collab_est,
                self.group_size,
            );
            let targets: Vec<ProcessId> = match self.cfg.strategy {
                GossipStrategy::Random => self.peers.sample(k, rng),
                GossipStrategy::Expander => {
                    expander_targets(&self.cfg.membership, self.me, now, k)
                }
            };
            let batch = Arc::new(self.active.values().cloned().collect::<Vec<_>>());
            for dst in targets {
                out.push((dst, GossipWire::Push(Arc::clone(&batch))));
            }
        }

        // Roll the collaborator estimate: peers heard from last round + us,
        // smoothed with slow exponential decay. A raw per-round estimate
        // oscillates (a low-fanout round means few peers are heard, which
        // collapses the estimate and re-saturates the fanout next round);
        // decaying halvings keep it near the true collaborator count while
        // still shrinking quickly when collaborators actually crash.
        let heard = self.collab_this_round.len() + 1;
        self.collab_est = heard.max(self.collab_est.div_ceil(2));
        self.collab_this_round.clear();

        debug_assert!(
            out.iter().all(|(dst, _)| self.cfg.membership.contains(*dst)),
            "filter violation: gossip instance addressed a non-member"
        );
        out
    }

    /// Handles an incoming wire message. Traffic from outside the membership
    /// is ignored (filtered).
    pub fn on_receive(&mut self, now: Round, src: ProcessId, wire: GossipWire<T>) {
        if !self.cfg.membership.contains(src) {
            return;
        }
        self.collab_this_round.insert(src);
        match wire {
            GossipWire::Push(rumors) => {
                for rumor in rumors.iter() {
                    if self.seen.contains_key(&rumor.id) {
                        continue;
                    }
                    self.seen.insert(rumor.id, rumor.deadline);
                    if rumor.dest.contains(self.me) {
                        self.delivered.push(rumor.clone());
                        if rumor.id.origin != self.me && !rumor.best_effort {
                            self.pending_acks
                                .entry(rumor.id.origin)
                                .or_default()
                                .push(rumor.id);
                        }
                    }
                    if rumor.active_at(now) {
                        self.active.insert(rumor.id, rumor.clone());
                    }
                }
            }
            GossipWire::Ack(ids) => {
                for id in ids {
                    if let Some(o) = self.own.get_mut(&id) {
                        o.unacked.remove(src);
                    }
                }
            }
        }
    }

    /// Returns (and clears) the rumors delivered to this process.
    pub fn take_delivered(&mut self) -> Vec<GossipRumor<T>> {
        std::mem::take(&mut self.delivered)
    }

    /// The tag under which this instance's messages should be sent.
    pub fn tag(&self) -> Tag {
        self.cfg.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mk(me: usize, n: usize) -> ContinuousGossip<u32> {
        ContinuousGossip::new(
            ProcessId::new(me),
            n,
            GossipConfig::all(n, Tag("gg")),
        )
    }

    #[test]
    fn inject_delivers_locally_when_self_is_destination() {
        let mut g = mk(0, 4);
        let dest = IdSet::from_iter(4, [ProcessId::new(0), ProcessId::new(2)]);
        g.inject(Round(0), 7, 16, dest);
        let d = g.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, 7);
        assert!(g.take_delivered().is_empty(), "pickup clears the queue");
    }

    #[test]
    fn push_delivers_and_queues_ack() {
        let mut a = mk(0, 4);
        let mut b = mk(1, 4);
        let dest = IdSet::from_iter(4, [ProcessId::new(1)]);
        a.inject(Round(0), 9, 16, dest);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = a.step(Round(0), &mut rng);
        assert!(!out.is_empty());
        // Deliver every push addressed to p1.
        for (dst, wire) in out {
            if dst == ProcessId::new(1) {
                b.on_receive(Round(0), ProcessId::new(0), wire);
            }
        }
        let d = b.take_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, 9);
        // Next round, b acks to the origin.
        let acks = b.step(Round(1), &mut rng);
        assert!(acks
            .iter()
            .any(|(dst, w)| *dst == ProcessId::new(0) && matches!(w, GossipWire::Ack(_))));
    }

    #[test]
    fn duplicate_pushes_deliver_once() {
        let mut b = mk(1, 4);
        let rumor = GossipRumor {
            id: RumorId {
                origin: ProcessId::new(0),
                birth: Round(0),
                seq: 0,
            },
            payload: 5u32,
            duration: 16,
            deadline: Round(16),
            dest: Arc::new(IdSet::from_iter(4, [ProcessId::new(1)])),
            best_effort: false,
        };
        b.on_receive(Round(0), ProcessId::new(0), GossipWire::Push(Arc::new(vec![rumor.clone()])));
        b.on_receive(Round(0), ProcessId::new(2), GossipWire::Push(Arc::new(vec![rumor])));
        assert_eq!(b.take_delivered().len(), 1);
    }

    #[test]
    fn filter_ignores_non_members_in_and_out() {
        let members = IdSet::from_iter(4, [ProcessId::new(0), ProcessId::new(1)]);
        let mut g: ContinuousGossip<u32> = ContinuousGossip::new(
            ProcessId::new(0),
            4,
            GossipConfig::group(members, Tag("gg")),
        );
        // Inject a rumor destined (partly) outside the membership.
        let dest = IdSet::from_iter(4, [ProcessId::new(1), ProcessId::new(3)]);
        g.inject(Round(0), 1, 16, dest);
        let mut rng = SmallRng::seed_from_u64(2);
        for r in 0..20 {
            for (dst, _) in g.step(Round(r), &mut rng) {
                assert_ne!(dst, ProcessId::new(3), "filter must block non-members");
                assert_ne!(dst, ProcessId::new(2));
            }
        }
        // Traffic *from* a non-member is dropped.
        let rumor = GossipRumor {
            id: RumorId {
                origin: ProcessId::new(2),
                birth: Round(0),
                seq: 0,
            },
            payload: 9u32,
            duration: 16,
            deadline: Round(16),
            dest: Arc::new(IdSet::from_iter(4, [ProcessId::new(0)])),
            best_effort: false,
        };
        g.on_receive(Round(0), ProcessId::new(2), GossipWire::Push(Arc::new(vec![rumor])));
        assert!(g.take_delivered().is_empty());
    }

    #[test]
    fn fallback_fires_at_deadline_for_unacked_destinations() {
        let mut a = mk(0, 8);
        let dest = IdSet::from_iter(8, [ProcessId::new(5)]);
        a.inject(Round(0), 3, 4, dest);
        let mut rng = SmallRng::seed_from_u64(3);
        // Never deliver any ack; at round 4 (the deadline) a direct push to
        // p5 must appear.
        let mut saw_direct = false;
        for r in 0..=4u64 {
            let out = a.step(Round(r), &mut rng);
            if r == 4 {
                saw_direct = out.iter().any(|(dst, w)| {
                    *dst == ProcessId::new(5) && matches!(w, GossipWire::Push(b) if b.len() == 1)
                });
            }
        }
        assert!(saw_direct, "deadline fallback must fire");
        assert!(a.fallbacks() >= 1);
    }

    #[test]
    fn acks_suppress_fallback() {
        let mut a = mk(0, 8);
        let dest = IdSet::from_iter(8, [ProcessId::new(5)]);
        let id = a.inject(Round(0), 3, 4, dest);
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = a.step(Round(0), &mut rng);
        a.on_receive(Round(1), ProcessId::new(5), GossipWire::Ack(vec![id]));
        for r in 1..=4u64 {
            let _ = a.step(Round(r), &mut rng);
        }
        assert_eq!(a.fallbacks(), 0, "acked destinations are not re-sent");
    }

    #[test]
    fn expired_rumors_stop_being_forwarded() {
        let mut a = mk(0, 8);
        let dest = IdSet::from_iter(8, [ProcessId::new(5)]);
        a.inject(Round(0), 3, 4, dest);
        let mut rng = SmallRng::seed_from_u64(4);
        for r in 0..=4u64 {
            let _ = a.step(Round(r), &mut rng);
        }
        // Past the deadline nothing is active; no pushes go out.
        let out = a.step(Round(5), &mut rng);
        assert!(out.is_empty(), "no traffic after expiry, got {out:?}");
    }

    #[test]
    fn collaborator_estimate_tracks_peers() {
        let mut g = mk(0, 16);
        // Hear pushes from 3 peers this round.
        for s in 1..=3usize {
            let rumor = GossipRumor {
                id: RumorId {
                    origin: ProcessId::new(s),
                    birth: Round(0),
                    seq: 0,
                },
                payload: 0u32,
                duration: 64,
                deadline: Round(64),
                dest: Arc::new(IdSet::empty(16)),
                best_effort: false,
            };
            g.on_receive(Round(0), ProcessId::new(s), GossipWire::Push(Arc::new(vec![rumor])));
        }
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = g.step(Round(1), &mut rng);
        assert_eq!(g.collab_est, 4, "3 peers + self");
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn endpoint_requires_membership() {
        let members = IdSet::from_iter(4, [ProcessId::new(1)]);
        let _g: ContinuousGossip<u32> = ContinuousGossip::new(
            ProcessId::new(0),
            4,
            GossipConfig::group(members, Tag("gg")),
        );
    }
}
