//! The embeddable continuous-gossip service.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::mem;
use std::sync::{Arc, OnceLock};

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
#[derive(Debug, PartialEq, Eq)]
pub enum GossipWire<T> {
    /// Epidemic push of a batch of active rumors (one envelope, arbitrarily
    /// many rumors — the model allows unbounded message size and gossip
    /// protocols gain their efficiency from exactly this merging).
    ///
    /// An honest sender's batch is its active set in ascending [`RumorId`]
    /// order, which lets the receiver deduplicate it by walking the batch's
    /// [id column](PushBatch::ids) against its own, equally sorted, active
    /// ids. A batch that is unsorted or repeats an id is accepted and
    /// handled identically, only without that fast path.
    Push(Arc<PushBatch<T>>),
    /// Acknowledgment of delivered rumors, sent to each rumor's origin.
    Ack(Vec<RumorId>),
}

/// A clone shares the push batch; it needs no `T: Clone`.
impl<T> Clone for GossipWire<T> {
    fn clone(&self) -> Self {
        match self {
            GossipWire::Push(batch) => GossipWire::Push(Arc::clone(batch)),
            GossipWire::Ack(ids) => GossipWire::Ack(ids.clone()),
        }
    }
}

/// The rumors of one push, each shared by `Arc` with every endpoint that
/// holds it, with their ids as a dense column and a memo of the batch's
/// size on the wire.
///
/// A batch is immutable. Its id column is built from its rumors, so a
/// decoded or hostile batch cannot disagree with it: `ids()[i]` is always
/// `rumors()[i].id`. Equality compares the rumors only.
pub struct PushBatch<T> {
    ids: Vec<RumorId>,
    rumors: Vec<Arc<GossipRumor<T>>>,
    /// The host's byte count of the rumors, computed on first request.
    wire_len: OnceLock<u64>,
}

impl<T> PushBatch<T> {
    /// A batch of columns kept in lockstep by the caller.
    fn from_columns(ids: Vec<RumorId>, rumors: Vec<Arc<GossipRumor<T>>>) -> Self {
        debug_assert!(ids.iter().eq(rumors.iter().map(|r| &r.id)));
        PushBatch {
            ids,
            rumors,
            wire_len: OnceLock::new(),
        }
    }

    /// The rumors, in push order.
    pub fn rumors(&self) -> &[Arc<GossipRumor<T>>] {
        &self.rumors
    }

    /// The rumors' ids, in push order.
    pub fn ids(&self) -> &[RumorId] {
        &self.ids
    }

    /// The bytes the rumors take on the wire, as `count` prices them. The
    /// first call runs `count`; every later one returns its result, so a
    /// batch pushed to many targets over many rounds is priced once. Every
    /// caller on one payload type must therefore price it the same way.
    pub fn wire_len(&self, count: impl FnOnce(&[Arc<GossipRumor<T>>]) -> u64) -> u64 {
        *self.wire_len.get_or_init(|| count(&self.rumors))
    }
}

impl<T> From<Vec<Arc<GossipRumor<T>>>> for PushBatch<T> {
    fn from(rumors: Vec<Arc<GossipRumor<T>>>) -> Self {
        let ids = rumors.iter().map(|r| r.id).collect();
        PushBatch::from_columns(ids, rumors)
    }
}

impl<T> From<Vec<GossipRumor<T>>> for PushBatch<T> {
    fn from(rumors: Vec<GossipRumor<T>>) -> Self {
        rumors.into_iter().map(Arc::new).collect::<Vec<_>>().into()
    }
}

impl<T: PartialEq> PartialEq for PushBatch<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rumors == other.rumors
    }
}

impl<T: Eq> Eq for PushBatch<T> {}

impl<T: fmt::Debug> fmt::Debug for PushBatch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.rumors).finish()
    }
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
    /// expander schedule (the de-randomized \[13\] mode).
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
    rumor: Arc<GossipRumor<T>>,
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
    /// The ids of the rumors this process actively forwards, in ascending
    /// order, at most one each; `active[i].id == ids[i]`. Every id here is
    /// also in `seen` (`ids ⊆ seen`): both insertion paths write `seen`
    /// first, and `seen` keeps every id with `deadline + 2 ≥ now` while
    /// `active` keeps only `deadline ≥ now`.
    ids: Vec<RumorId>,
    /// The rumors of `ids`, in lockstep with it.
    active: Vec<Arc<GossipRumor<T>>>,
    /// `ids` and `active` as one shared push batch, with the shortest
    /// duration among them (the fanout's `dmin`); `None` once they changed,
    /// rebuilt at the next push.
    batch: Option<(Arc<PushBatch<T>>, u64)>,
    /// Dedup set with the round after which each entry may be dropped. A
    /// superset of `active`'s ids; it also guards ids no longer active, or
    /// never made active.
    seen: HashMap<RumorId, Round>,
    /// Rumors this process injected and still tracks for acknowledgment.
    own: BTreeMap<RumorId, OwnRumor<T>>,
    /// Acks queued for the next send phase as `(destination, id)`, in
    /// arrival order; emptied each step, capacity kept.
    pending_acks: Vec<(ProcessId, RumorId)>,
    /// Rumors delivered to this process, awaiting pickup by the host
    /// (drained, capacity kept).
    delivered: Vec<Arc<GossipRumor<T>>>,
    /// Collaborators heard from in the previous round (plus self).
    collab_est: usize,
    /// The targets of the emission being built (capacity kept).
    targets: Vec<ProcessId>,
    collab_this_round: IdSet,
    /// `collab_this_round.len()`, counted as peers are first heard.
    heard_this_round: usize,
    /// Count of fallback direct-sends performed (observable for Lemma 10
    /// style "fallback is rare" experiments).
    fallbacks: u64,
}

impl<T> ContinuousGossip<T> {
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
            ids: Vec::new(),
            active: Vec::new(),
            batch: None,
            seen: HashMap::new(),
            own: BTreeMap::new(),
            pending_acks: Vec::new(),
            delivered: Vec::new(),
            collab_est: 1,
            targets: Vec::new(),
            collab_this_round: IdSet::empty(n),
            heard_this_round: 0,
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
        let rumor = Arc::new(GossipRumor {
            id,
            payload,
            duration,
            deadline: now + duration,
            dest,
            best_effort,
        });
        self.seen.insert(id, rumor.deadline);
        if rumor.dest.contains(self.me) {
            self.delivered.push(Arc::clone(&rumor));
        }
        if !best_effort {
            let mut unacked = rumor.dest.clone();
            unacked.intersect_with(&self.cfg.membership);
            unacked.remove(self.me);
            self.own.insert(
                id,
                OwnRumor {
                    rumor: Arc::clone(&rumor),
                    unacked,
                },
            );
        }
        match self.ids.binary_search(&id) {
            Ok(i) => self.active[i] = rumor,
            Err(i) => {
                self.ids.insert(i, id);
                self.active.insert(i, rumor);
            }
        }
        self.batch = None;
        id
    }

    /// Send phase: returns this round's outgoing wire messages, one per
    /// destination, in the order [`step_with`](Self::step_with) emits them
    /// and each emission's targets in order. Only tests and the benchmark
    /// probe call this; hosts emit in place.
    pub fn step(&mut self, now: Round, rng: &mut SmallRng) -> Vec<(ProcessId, GossipWire<T>)> {
        let mut out = Vec::new();
        self.step_with(now, rng, |targets, wire| {
            out.extend(targets.iter().map(|&dst| (dst, wire.clone())));
        });
        out
    }

    /// Send phase: hands this round's outgoing wire messages to `emit`, each
    /// once with the destinations it goes to, in order: acks (one per
    /// destination, ascending, ids in arrival order), deadline fallbacks
    /// (one per rumor, ascending rumor id, to its unacknowledged
    /// destinations in ascending order), then the epidemic push (to the
    /// round's targets). No emission has an empty target list, and every
    /// destination is a member of the instance — the filter by
    /// construction.
    pub fn step_with(
        &mut self,
        now: Round,
        rng: &mut SmallRng,
        mut emit: impl FnMut(&[ProcessId], GossipWire<T>),
    ) {
        let membership = &self.cfg.membership;
        let mut emit = |targets: &[ProcessId], wire: GossipWire<T>| {
            debug_assert!(
                targets.iter().all(|&dst| membership.contains(dst)),
                "filter violation: gossip instance addressed a non-member"
            );
            emit(targets, wire);
        };

        // Drop expired rumors from the forwarding set.
        let before = self.active.len();
        self.active.retain(|r| r.active_at(now));
        if self.active.len() != before {
            self.ids.clear();
            self.ids.extend(self.active.iter().map(|r| r.id));
            self.batch = None;
        }
        // Prune the dedup map once it outgrows a small bound. The retain
        // predicate is the receive horizon (a rumor's last send is its
        // deadline fallback in round `dl`, received in that same round, so
        // `now = dl < dl + 2`), so pruning earlier or more often is
        // behavior-neutral — it only caps the map near the live window
        // instead of letting every instance hold thousands of dead ids.
        // It is also weaker than the expiry above (`dl ≥ now`), which keeps
        // `active ⊆ seen`.
        if self.seen.len() > 256 {
            self.seen.retain(|_, dl| *dl + 2 >= now);
        }

        // Acks queued from last round's deliveries: one per destination.
        // The sort is stable, so each destination's ids keep arrival order.
        self.pending_acks.sort_by_key(|&(dst, _)| dst);
        for run in self.pending_acks.chunk_by(|a, b| a.0 == b.0) {
            let ids = run.iter().map(|&(_, id)| id).collect();
            emit(&[run[0].0], GossipWire::Ack(ids));
        }
        self.pending_acks.clear();

        // Deadline fallback: for own rumors whose deadline is this round,
        // send directly to every unacknowledged destination. This is what
        // makes Quality of Delivery hold with probability 1.
        if !self.own.is_empty() {
            let (fallbacks, targets) = (&mut self.fallbacks, &mut self.targets);
            self.own.retain(|_, o| {
                if o.rumor.deadline == now && !o.unacked.is_empty() {
                    targets.clear();
                    targets.extend(o.unacked.iter());
                    *fallbacks += targets.len() as u64;
                    let single = PushBatch::from(vec![Arc::clone(&o.rumor)]);
                    emit(targets, GossipWire::Push(Arc::new(single)));
                }
                o.rumor.deadline > now
            });
        }

        // Epidemic push of all active rumors, to random members or along
        // the deterministic expander schedule.
        if !self.active.is_empty() {
            let (ids, active) = (&self.ids, &self.active);
            let (batch, dmin) = self.batch.get_or_insert_with(|| {
                let dmin = active.iter().map(|r| r.duration).min().unwrap_or(1);
                let batch = PushBatch::from_columns(ids.clone(), active.clone());
                (Arc::new(batch), dmin.max(1))
            });
            let k = fanout(
                self.cfg.fanout,
                self.n,
                *dmin,
                self.collab_est,
                self.group_size,
            );
            match self.cfg.strategy {
                GossipStrategy::Random => self.peers.sample_into(k, rng, &mut self.targets),
                GossipStrategy::Expander => {
                    expander_targets(membership, self.me, now, k, &mut self.targets)
                }
            }
            if !self.targets.is_empty() {
                emit(&self.targets, GossipWire::Push(Arc::clone(batch)));
            }
        }

        // Roll the collaborator estimate: peers heard from last round + us,
        // smoothed with slow exponential decay. A raw per-round estimate
        // oscillates (a low-fanout round means few peers are heard, which
        // collapses the estimate and re-saturates the fanout next round);
        // decaying halvings keep it near the true collaborator count while
        // still shrinking quickly when collaborators actually crash.
        let heard = mem::take(&mut self.heard_this_round);
        self.collab_est = (heard + 1).max(self.collab_est.div_ceil(2));
        if heard != 0 {
            self.collab_this_round.clear();
        }
    }

    /// Handles an incoming wire message. Traffic from outside the membership
    /// is ignored (filtered), and so is a pushed rumor whose origin is not a
    /// member: no honest peer forwards one, since a rumor enters an instance
    /// only at a member. The wire may be owned or borrowed (a host reads its
    /// inbox in place); either way a rumor this endpoint keeps is the
    /// pushed allocation, shared by one refcount bump.
    ///
    /// A push is deduplicated by walking its id column in step with the
    /// endpoint's own sorted active ids; only a rumor not found there is
    /// read. That skip is exact because `ids ⊆ seen`; every other rumor is
    /// checked against `seen`, and a new active one joins the active
    /// columns at the walk's cursor. Where the batch steps back in id order
    /// (never in an honest push) the cursor is re-placed by binary search,
    /// so such a batch is handled identically, only slower.
    pub fn on_receive(&mut self, now: Round, src: ProcessId, wire: impl Borrow<GossipWire<T>>) {
        if !self.cfg.membership.contains(src) {
            return;
        }
        if self.collab_this_round.insert(src) {
            self.heard_this_round += 1;
        }
        match wire.borrow() {
            GossipWire::Push(batch) => {
                // The walk's cursor: after it advances, `ids[..at]` holds
                // exactly the active ids below the one walked.
                let mut at = 0;
                for (i, &id) in batch.ids().iter().enumerate() {
                    if self.ids.get(at) == Some(&id) {
                        at += 1;
                        continue;
                    }
                    if at > 0 && self.ids[at - 1] > id {
                        // The batch stepped back in id order.
                        at = self.ids.partition_point(|&a| a < id);
                    }
                    while self.ids.get(at).is_some_and(|&a| a < id) {
                        at += 1;
                    }
                    if self.ids.get(at) == Some(&id) {
                        at += 1;
                        continue;
                    }
                    if !self.cfg.membership.contains(id.origin) {
                        continue;
                    }
                    let rumor = &batch.rumors()[i];
                    if self.seen.contains_key(&id) {
                        continue;
                    }
                    self.seen.insert(id, rumor.deadline);
                    if rumor.dest.contains(self.me) {
                        self.delivered.push(Arc::clone(rumor));
                        if id.origin != self.me && !rumor.best_effort {
                            self.pending_acks.push((id.origin, id));
                        }
                    }
                    if rumor.active_at(now) {
                        self.ids.insert(at, id);
                        self.active.insert(at, Arc::clone(rumor));
                        at += 1;
                        self.batch = None;
                    }
                }
            }
            GossipWire::Ack(ids) => {
                for id in ids {
                    if let Some(o) = self.own.get_mut(id) {
                        o.unacked.remove(src);
                    }
                }
            }
        }
    }

    /// Drains the rumors delivered to this process, in delivery order, each
    /// the allocation the endpoint also forwards. The queue keeps its
    /// capacity for the next round.
    pub fn take_delivered(&mut self) -> std::vec::Drain<'_, Arc<GossipRumor<T>>> {
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
    use std::collections::BTreeSet;

    fn mk(me: usize, n: usize) -> ContinuousGossip<u32> {
        ContinuousGossip::new(ProcessId::new(me), n, GossipConfig::all(n, Tag("gg")))
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
            dest: IdSet::from_iter(4, [ProcessId::new(1)]),
            best_effort: false,
        };
        b.on_receive(
            Round(0),
            ProcessId::new(0),
            GossipWire::Push(Arc::new(vec![rumor.clone()].into())),
        );
        b.on_receive(
            Round(0),
            ProcessId::new(2),
            GossipWire::Push(Arc::new(vec![rumor].into())),
        );
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
            dest: IdSet::from_iter(4, [ProcessId::new(0)]),
            best_effort: false,
        };
        g.on_receive(
            Round(0),
            ProcessId::new(2),
            GossipWire::Push(Arc::new(vec![rumor].into())),
        );
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
                    *dst == ProcessId::new(5) && matches!(w, GossipWire::Push(b) if b.rumors().len() == 1)
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
                dest: IdSet::empty(16),
                best_effort: false,
            };
            g.on_receive(
                Round(0),
                ProcessId::new(s),
                GossipWire::Push(Arc::new(vec![rumor].into())),
            );
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
            dest: IdSet::from_iter(n, dest.iter().map(|&p| ProcessId::new(p))),
            best_effort: false,
        }
    }

    fn push_one(g: &mut ContinuousGossip<u32>, now: Round, src: usize, r: GossipRumor<u32>) {
        let wire = GossipWire::Push(Arc::new(vec![r].into()));
        g.on_receive(now, ProcessId::new(src), wire);
    }

    fn ids_of(rumors: &[Arc<GossipRumor<u32>>]) -> Vec<RumorId> {
        rumors.iter().map(|r| r.id).collect()
    }

    /// The batch of a step's epidemic push (its last wire).
    fn epidemic_batch(out: &[(ProcessId, GossipWire<u32>)]) -> Arc<PushBatch<u32>> {
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
    fn push_of_active_rumors_changes_nothing() {
        let n = 8;
        let mut g = mk(0, n);
        g.inject(Round(0), 1, 16, IdSet::full(n));
        push_one(&mut g, Round(0), 3, rumor(n, 3, 0, &[0, 4]));
        push_one(&mut g, Round(0), 5, rumor(n, 5, 0, &[0]));
        let mut rng = SmallRng::seed_from_u64(11);
        let batch = epidemic_batch(&g.step(Round(1), &mut rng));
        assert_eq!(batch.rumors().len(), 3);
        g.take_delivered().for_each(drop);

        // The sender forwards the same three rumors.
        let echo = GossipWire::Push(Arc::new(batch.rumors().to_vec().into()));
        g.on_receive(Round(1), ProcessId::new(4), echo);
        assert!(g.delivered.is_empty() && g.pending_acks.is_empty());
        let again = epidemic_batch(&g.step(Round(2), &mut rng));
        assert!(Arc::ptr_eq(&again, &batch), "the batch is kept");
    }

    #[test]
    fn batch_follows_the_active_set_through_insert_inject_and_expiry() {
        let n = 8;
        let mut g = mk(0, n);
        let mut rng = SmallRng::seed_from_u64(8);
        // The batch is the active columns: the same ids, the same
        // allocations.
        let active = |g: &ContinuousGossip<u32>| {
            assert_eq!(g.ids, ids_of(&g.active));
            (g.ids.clone(), g.active.clone())
        };
        let columns = |b: &PushBatch<u32>| {
            assert_eq!(
                b.ids(),
                ids_of(b.rumors()),
                "the id column follows the rumors"
            );
            (b.ids().to_vec(), b.rumors().to_vec())
        };
        g.inject(Round(0), 1, 2, IdSet::full(n));
        let mut last = epidemic_batch(&g.step(Round(0), &mut rng));
        assert_eq!(columns(&last), active(&g));

        // An insert through `on_receive`.
        push_one(&mut g, Round(0), 3, rumor(n, 3, 0, &[0, 4]));
        let batch = epidemic_batch(&g.step(Round(1), &mut rng));
        assert_eq!((batch.rumors().len(), columns(&batch)), (2, active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
        last = batch;

        // An insert through `inject`.
        g.inject(Round(1), 2, 16, IdSet::full(n));
        let batch = epidemic_batch(&g.step(Round(2), &mut rng));
        assert_eq!((batch.rumors().len(), columns(&batch)), (3, active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
        last = batch;

        // The first rumor's deadline (round 2) passes: it expires at round 3.
        let batch = epidemic_batch(&g.step(Round(3), &mut rng));
        assert_eq!((batch.rumors().len(), columns(&batch)), (2, active(&g)));
        assert!(!Arc::ptr_eq(&batch, &last));
    }

    #[test]
    fn borrowed_and_owned_wires_leave_identical_state() {
        let n = 8;
        let mut a = mk(0, n);
        a.inject(Round(0), 4, 16, IdSet::from_iter(n, [ProcessId::new(1)]));
        push_one(&mut a, Round(0), 2, rumor(n, 2, 0, &[0, 1]));
        let mut rng = SmallRng::seed_from_u64(9);
        let push = a.step(Round(0), &mut rng).pop().expect("an epidemic push");
        let GossipWire::Push(batch) = &push.1 else {
            panic!("not a push: {push:?}")
        };
        let (mut borrowed, mut owned) = (mk(1, n), mk(1, n));
        let to_a = IdSet::from_iter(n, [ProcessId::new(0)]);
        let mine = borrowed.inject(Round(0), 7, 16, to_a.clone());
        assert_eq!(owned.inject(Round(0), 7, 16, to_a), mine);
        let ack = GossipWire::Ack(vec![mine]);
        let refs = Arc::strong_count(batch);
        for wire in [&push.1, &ack] {
            borrowed.on_receive(Round(0), ProcessId::new(0), wire);
        }
        assert_eq!(
            Arc::strong_count(batch),
            refs,
            "a borrowed push is read in place"
        );
        for wire in [push.1.clone(), ack] {
            owned.on_receive(Round(0), ProcessId::new(0), wire);
        }
        assert_eq!(borrowed.pending_acks, owned.pending_acks);
        let unacked = |g: &ContinuousGossip<u32>| g.own[&mine].unacked.clone();
        assert!(unacked(&borrowed).is_empty(), "the ack is applied");
        assert_eq!(unacked(&borrowed), unacked(&owned));
        let delivered = |g: &mut ContinuousGossip<u32>| g.take_delivered().collect::<Vec<_>>();
        assert_eq!(delivered(&mut borrowed), delivered(&mut owned));
        let (mut r1, mut r2) = (SmallRng::seed_from_u64(10), SmallRng::seed_from_u64(10));
        let steps = (
            borrowed.step(Round(1), &mut r1),
            owned.step(Round(1), &mut r2),
        );
        assert_eq!(epidemic_batch(&steps.0), epidemic_batch(&steps.1));
        assert_eq!(steps.0, steps.1, "same acks, same targets, same batch");
    }

    #[test]
    fn pushed_rumor_from_a_non_member_origin_is_ignored() {
        let n = 4;
        let members = IdSet::from_iter(n, [ProcessId::new(0), ProcessId::new(1)]);
        let mut g: ContinuousGossip<u32> = ContinuousGossip::new(
            ProcessId::new(0),
            n,
            GossipConfig::group(members, Tag("gg")),
        );
        // A member forwards a rumor that entered the instance at p2, which
        // only a hostile or corrupt peer does.
        let foreign = rumor(n, 2, 0, &[0, 1]);
        let id = foreign.id;
        push_one(&mut g, Round(0), 1, foreign);
        assert_eq!(g.take_delivered().len(), 0, "no delivery");
        assert!(!g.seen.contains_key(&id), "no seen entry");
        assert!(g.ids.is_empty() && g.active.is_empty(), "no forwarding");
        let mut rng = SmallRng::seed_from_u64(12);
        let out = g.step(Round(1), &mut rng);
        assert!(out.is_empty(), "no ack and no push: {out:?}");

        // The same push with a member origin is taken up.
        push_one(&mut g, Round(1), 1, rumor(n, 1, 0, &[0]));
        assert_eq!(g.take_delivered().len(), 1);
        let out = g.step(Round(2), &mut rng);
        assert!(
            out.iter().all(|(dst, _)| *dst == ProcessId::new(1)),
            "{out:?}"
        );
        assert!(matches!(&out[0].1, GossipWire::Ack(ids) if ids.len() == 1));
    }

    #[test]
    fn kept_rumors_are_the_pushed_allocation() {
        let n = 8;
        let mut g = mk(0, n);
        let batch = Arc::new(PushBatch::from(vec![
            rumor(n, 2, 0, &[0, 1]),
            rumor(n, 3, 0, &[1]),
        ]));
        g.on_receive(
            Round(0),
            ProcessId::new(2),
            GossipWire::Push(Arc::clone(&batch)),
        );
        let pushed = batch.rumors();
        assert!(Arc::ptr_eq(&g.active[0], &pushed[0]), "activated in place");
        assert!(Arc::ptr_eq(&g.active[1], &pushed[1]));
        let delivered: Vec<_> = g.take_delivered().collect();
        assert_eq!(delivered.len(), 1);
        assert!(Arc::ptr_eq(&delivered[0], &pushed[0]), "delivered in place");
        // The next push forwards the same allocations.
        let mut rng = SmallRng::seed_from_u64(13);
        let forwarded = epidemic_batch(&g.step(Round(1), &mut rng));
        assert!(forwarded.rumors().iter().zip(pushed).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    #[test]
    fn id_column_is_built_from_the_rumors() {
        let n = 8;
        let rumors = vec![
            rumor(n, 5, 1, &[0]),
            rumor(n, 2, 0, &[1]),
            rumor(n, 5, 1, &[]),
        ];
        let owned = PushBatch::from(rumors.clone());
        assert_eq!(owned.ids(), ids_of(owned.rumors()));
        assert_eq!(owned.ids()[1], rumors[1].id, "push order is kept");
        let shared = PushBatch::from(rumors.into_iter().map(Arc::new).collect::<Vec<_>>());
        assert_eq!(shared.ids(), owned.ids());
        assert_eq!(shared, owned);
    }

    #[test]
    fn wire_len_is_counted_once() {
        let n = 8;
        let batch = PushBatch::from(vec![rumor(n, 1, 0, &[0]), rumor(n, 2, 0, &[0])]);
        let mut calls = 0;
        for _ in 0..3 {
            let len = batch.wire_len(|rumors| {
                calls += 1;
                10 * rumors.len() as u64
            });
            assert_eq!(len, 20);
        }
        assert_eq!(calls, 1, "the count is memoized");
    }

    /// An endpoint of 8 with two acks, one deadline fallback and an
    /// epidemic push due at round 2.
    fn endpoint_with_every_emission() -> ContinuousGossip<u32> {
        let n = 8;
        let mut g = mk(0, n);
        let dest = IdSet::from_iter(n, [3, 4, 5].map(ProcessId::new));
        let own = g.inject(Round(0), 1, 2, dest);
        push_one(&mut g, Round(0), 1, rumor(n, 2, 0, &[0]));
        push_one(&mut g, Round(0), 6, rumor(n, 6, 0, &[0, 7]));
        g.on_receive(Round(0), ProcessId::new(4), GossipWire::Ack(vec![own]));
        g
    }

    #[test]
    fn step_with_emits_each_wire_once_to_all_its_targets() {
        let mut g = endpoint_with_every_emission();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut emitted: Vec<(Vec<ProcessId>, GossipWire<u32>)> = Vec::new();
        g.step_with(Round(2), &mut rng, |targets, wire| {
            emitted.push((targets.to_vec(), wire));
        });
        let pids = |ids: &[usize]| ids.iter().map(|&i| ProcessId::new(i)).collect::<Vec<_>>();
        assert!(matches!(&emitted[0], (t, GossipWire::Ack(_)) if *t == pids(&[2])));
        assert!(matches!(&emitted[1], (t, GossipWire::Ack(_)) if *t == pids(&[6])));
        match &emitted[2] {
            (t, GossipWire::Push(single)) => {
                assert_eq!(*t, pids(&[3, 5]), "every unacked destination, once");
                assert_eq!(single.rumors().len(), 1);
            }
            other => panic!("expected the deadline fallback, got {other:?}"),
        }
        assert_eq!(g.fallbacks(), 2);
        assert_eq!(emitted.len(), 4, "the epidemic push is one emission");
        let (targets, wire) = &emitted[3];
        assert!(matches!(wire, GossipWire::Push(batch) if batch.rumors().len() == 3));
        let k = fanout(FanoutParams::default(), 8, 2, 1, 8);
        let distinct: BTreeSet<_> = targets.iter().collect();
        assert_eq!((targets.len(), distinct.len()), (k, k));
        assert!(!targets.contains(&ProcessId::new(0)));

        // `step` is the same emissions, one wire per target, in order.
        let mut twin = endpoint_with_every_emission();
        let expanded = twin.step(Round(2), &mut SmallRng::seed_from_u64(3));
        let want: Vec<(ProcessId, GossipWire<u32>)> = emitted
            .iter()
            .flat_map(|(t, wire)| t.iter().map(move |&dst| (dst, wire.clone())))
            .collect();
        assert_eq!(expanded, want);
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
