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
/// active rumors, deep copies dominate memory otherwise). The sender also
/// keeps the batch between rounds and rebuilds it only after its active
/// set changed, so consecutive pushes may share one allocation.
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
/// [`step_with`](ContinuousGossip::step_with) once per round in the host's
/// send phase,
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
    /// `active`'s values as one shared push batch; `None` once `active`
    /// changed, rebuilt at the next push.
    batch: Option<Arc<Vec<GossipRumor<T>>>>,
    /// Dedup set with the round after which each entry may be dropped.
    seen: HashMap<RumorId, Round>,
    /// Rumors this process injected and still tracks for acknowledgment.
    own: BTreeMap<RumorId, OwnRumor<T>>,
    /// Acks queued for the next send phase as `(destination, id)`, in
    /// arrival order; emptied each step, capacity kept.
    pending_acks: Vec<(ProcessId, RumorId)>,
    /// Rumors delivered to this process, awaiting pickup by the host
    /// (drained, capacity kept).
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
            batch: None,
            seen: HashMap::new(),
            own: BTreeMap::new(),
            pending_acks: Vec::new(),
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
        self.batch = None;
        id
    }

    /// Send phase: returns this round's outgoing wire messages, in the
    /// order [`step_with`](Self::step_with) emits them. Only tests and the
    /// benchmark probe call this; hosts emit in place.
    pub fn step(&mut self, now: Round, rng: &mut SmallRng) -> Vec<(ProcessId, GossipWire<T>)> {
        let mut out = Vec::new();
        self.step_with(now, rng, |dst, wire| out.push((dst, wire)));
        out
    }

    /// Send phase: hands this round's outgoing wire messages to `emit`, in
    /// order: acks (ascending destination, ids in arrival order), deadline
    /// fallbacks (ascending rumor id, ascending destination), then the
    /// epidemic push. Every destination is a member of the instance — the
    /// filter by construction.
    pub fn step_with(
        &mut self,
        now: Round,
        rng: &mut SmallRng,
        mut emit: impl FnMut(ProcessId, GossipWire<T>),
    ) {
        let membership = &self.cfg.membership;
        let mut emit = |dst: ProcessId, wire: GossipWire<T>| {
            debug_assert!(
                membership.contains(dst),
                "filter violation: gossip instance addressed a non-member"
            );
            emit(dst, wire);
        };

        // Drop expired rumors from the forwarding set.
        let before = self.active.len();
        self.active.retain(|_, r| r.active_at(now));
        if self.active.len() != before {
            self.batch = None;
        }
        // Prune the dedup map once it outgrows a small bound. The retain
        // predicate is the receive horizon (a rumor can arrive no later
        // than its deadline-fallback round `dl + 1`, processed at
        // `now = dl + 1 < dl + 2`), so pruning earlier or more often is
        // behavior-neutral — it only caps the map near the live window
        // instead of letting every instance hold thousands of dead ids.
        if self.seen.len() > 256 {
            self.seen.retain(|_, dl| *dl + 2 >= now);
        }

        // Acks queued from last round's deliveries: one per destination.
        // The sort is stable, so each destination's ids keep arrival order.
        self.pending_acks.sort_by_key(|&(dst, _)| dst);
        for run in self.pending_acks.chunk_by(|a, b| a.0 == b.0) {
            let ids = run.iter().map(|&(_, id)| id).collect();
            emit(run[0].0, GossipWire::Ack(ids));
        }
        self.pending_acks.clear();

        // Deadline fallback: for own rumors whose deadline is this round,
        // send directly to every unacknowledged destination. This is what
        // makes Quality of Delivery hold with probability 1.
        let fallbacks = &mut self.fallbacks;
        self.own.retain(|_, o| {
            if o.rumor.deadline == now && !o.unacked.is_empty() {
                let single = Arc::new(vec![o.rumor.clone()]);
                for dst in o.unacked.iter() {
                    *fallbacks += 1;
                    emit(dst, GossipWire::Push(Arc::clone(&single)));
                }
            }
            o.rumor.deadline > now
        });

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
                GossipStrategy::Expander => expander_targets(membership, self.me, now, k),
            };
            let active = &self.active;
            let batch = self
                .batch
                .get_or_insert_with(|| Arc::new(active.values().cloned().collect()));
            for dst in targets {
                emit(dst, GossipWire::Push(Arc::clone(batch)));
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
                            self.pending_acks.push((rumor.id.origin, rumor.id));
                        }
                    }
                    if rumor.active_at(now) {
                        self.active.insert(rumor.id, rumor.clone());
                        self.batch = None;
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

    /// Drains the rumors delivered to this process, in delivery order. The
    /// queue keeps its capacity for the next round.
    pub fn take_delivered(&mut self) -> std::vec::Drain<'_, GossipRumor<T>> {
        self.delivered.drain(..)
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
        let d: Vec<_> = g.take_delivered().collect();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, 7);
        assert_eq!(g.take_delivered().len(), 0, "pickup clears the queue");
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
        let d: Vec<_> = b.take_delivered().collect();
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
        assert_eq!(g.take_delivered().len(), 0);
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

    /// A rumor from `origin` (born at round 0) destined to `dest`.
    fn rumor(n: usize, origin: usize, seq: u32, dest: &[usize]) -> GossipRumor<u32> {
        GossipRumor {
            id: RumorId {
                origin: ProcessId::new(origin),
                birth: Round(0),
                seq,
            },
            payload: seq,
            duration: 16,
            deadline: Round(16),
            dest: Arc::new(IdSet::from_iter(n, dest.iter().map(|&p| ProcessId::new(p)))),
            best_effort: false,
        }
    }

    fn push_one(g: &mut ContinuousGossip<u32>, now: Round, src: usize, r: GossipRumor<u32>) {
        let wire = GossipWire::Push(Arc::new(vec![r]));
        g.on_receive(now, ProcessId::new(src), wire);
    }

    /// The batch of a step's epidemic push (its last wire).
    fn epidemic_batch(out: &[(ProcessId, GossipWire<u32>)]) -> Arc<Vec<GossipRumor<u32>>> {
        match out.last() {
            Some((_, GossipWire::Push(batch))) => Arc::clone(batch),
            other => panic!("step ended without an epidemic push: {other:?}"),
        }
    }

    #[test]
    fn one_ack_per_origin_in_ascending_order_with_ids_in_arrival_order() {
        let n = 8;
        let mut b = mk(1, n);
        // Interleaved deliveries from origins 5, 2 and 7.
        for (origin, seq) in [(5, 0), (2, 0), (5, 1), (7, 0), (2, 1), (5, 2)] {
            push_one(&mut b, Round(0), origin, rumor(n, origin, seq, &[1]));
        }
        let id = |origin, seq| RumorId {
            origin: ProcessId::new(origin),
            birth: Round(0),
            seq,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let out = b.step(Round(1), &mut rng);
        let acks: Vec<(ProcessId, GossipWire<u32>)> = vec![
            (ProcessId::new(2), GossipWire::Ack(vec![id(2, 0), id(2, 1)])),
            (
                ProcessId::new(5),
                GossipWire::Ack(vec![id(5, 0), id(5, 1), id(5, 2)]),
            ),
            (ProcessId::new(7), GossipWire::Ack(vec![id(7, 0)])),
        ];
        assert_eq!(out[..3], acks[..], "acks lead the step, one per origin");
        assert!(
            out[3..]
                .iter()
                .all(|(_, w)| matches!(w, GossipWire::Push(_))),
            "no second ack: {out:?}"
        );
        let again = b.step(Round(2), &mut rng);
        assert!(
            again.iter().all(|(_, w)| matches!(w, GossipWire::Push(_))),
            "acks are sent once"
        );
    }

    #[test]
    fn unchanged_active_set_pushes_the_same_batch() {
        let mut a = mk(0, 8);
        a.inject(Round(0), 3, 16, IdSet::full(8));
        let mut rng = SmallRng::seed_from_u64(7);
        let first = epidemic_batch(&a.step(Round(0), &mut rng));
        let second = epidemic_batch(&a.step(Round(1), &mut rng));
        assert!(
            Arc::ptr_eq(&first, &second),
            "the batch is rebuilt only on change"
        );
    }

    #[test]
    fn batch_follows_the_active_set_through_insert_inject_and_expiry() {
        let n = 8;
        let mut g = mk(0, n);
        let mut rng = SmallRng::seed_from_u64(8);
        let active = |g: &ContinuousGossip<u32>| g.active.values().cloned().collect::<Vec<_>>();
        g.inject(Round(0), 1, 2, IdSet::full(n));
        let mut last = epidemic_batch(&g.step(Round(0), &mut rng));
        assert_eq!(*last, active(&g));

        // An insert through `on_receive`.
        push_one(&mut g, Round(0), 3, rumor(n, 3, 0, &[0, 4]));
        let batch = epidemic_batch(&g.step(Round(1), &mut rng));
        assert_eq!((batch.len(), &*batch), (2, &active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
        last = batch;

        // An insert through `inject`.
        g.inject(Round(1), 2, 16, IdSet::full(n));
        let batch = epidemic_batch(&g.step(Round(2), &mut rng));
        assert_eq!((batch.len(), &*batch), (3, &active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
        last = batch;

        // The first rumor's deadline (round 2) passes: it expires at round 3.
        let batch = epidemic_batch(&g.step(Round(3), &mut rng));
        assert_eq!((batch.len(), &*batch), (2, &active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
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
