//! Differential property test of `ContinuousGossip`'s push deduplication.
//!
//! The endpoint keeps its active ids as one sorted column and skips a
//! pushed rumor it already forwards, found by walking the push's id column,
//! without reading the rumor or consulting its `seen` map. `Reference`
//! below is the straightforward endpoint that walk replaced: a `BTreeMap`
//! active set and every pushed id looked up in `seen`, which it prunes in
//! every step. Both ignore a pushed rumor whose origin is not a member or
//! whose receive horizon `deadline + 2` has passed. Both are driven through the same
//! arbitrary interleaving of `inject`, `step` and `on_receive` — pushes
//! ascending, shuffled or repeating ids, carrying expired rumors and
//! rumors of any origin, from members and non-members, plus acks and echoes
//! of the endpoint's own batch — and must emit equal wires, deliver equal
//! rumors and count equal fallbacks. A step either drops its wires, so the
//! endpoint refills its push batch in place at the next change, or holds
//! its push until the next step, which must leave the held batch as it was.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use congos_gossip::{
    expander_targets, fanout, ContinuousGossip, FanoutParams, GossipConfig, GossipRumor,
    GossipStrategy, GossipWire, PushBatch, RumorId,
};
use congos_sim::{IdSet, ProcessId, Round, Tag};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

type Wire = GossipWire<u32>;

type Rumor = Arc<GossipRumor<u32>>;

struct OwnRumor {
    rumor: Rumor,
    unacked: IdSet,
}

/// The endpoint as it deduplicated before the sorted active set: every
/// pushed id is checked in `seen`, and `active` is a `BTreeMap`.
struct Reference {
    me: ProcessId,
    n: usize,
    cfg: GossipConfig,
    peers: IdSet,
    last_inject_round: Round,
    next_seq: u32,
    active: BTreeMap<RumorId, Rumor>,
    seen: HashMap<RumorId, Round>,
    own: BTreeMap<RumorId, OwnRumor>,
    pending_acks: Vec<(ProcessId, RumorId)>,
    delivered: Vec<Rumor>,
    collab_est: usize,
    collab_this_round: IdSet,
    fallbacks: u64,
}

impl Reference {
    fn new(me: ProcessId, n: usize, cfg: GossipConfig) -> Self {
        let mut peers = cfg.membership.clone();
        peers.remove(me);
        Reference {
            me,
            n,
            cfg,
            peers,
            last_inject_round: Round::ZERO,
            next_seq: 0,
            active: BTreeMap::new(),
            seen: HashMap::new(),
            own: BTreeMap::new(),
            pending_acks: Vec::new(),
            delivered: Vec::new(),
            collab_est: 1,
            collab_this_round: IdSet::empty(n),
            fallbacks: 0,
        }
    }

    fn inject(&mut self, now: Round, payload: u32, duration: u64, dest: IdSet, best_effort: bool) {
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
            self.delivered.push(rumor.clone());
        }
        if !best_effort {
            let mut unacked = rumor.dest.clone();
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
    }

    fn step(&mut self, now: Round, rng: &mut SmallRng) -> Vec<(ProcessId, Wire)> {
        let mut out = Vec::new();
        self.active.retain(|_, r| r.active_at(now));
        self.seen.retain(|_, dl| *dl + 2 >= now);
        self.pending_acks.sort_by_key(|&(dst, _)| dst);
        for run in self.pending_acks.chunk_by(|a, b| a.0 == b.0) {
            out.push((
                run[0].0,
                GossipWire::Ack(run.iter().map(|&(_, id)| id).collect()),
            ));
        }
        self.pending_acks.clear();
        let fallbacks = &mut self.fallbacks;
        self.own.retain(|_, o| {
            if o.rumor.deadline == now && !o.unacked.is_empty() {
                for dst in o.unacked.iter() {
                    *fallbacks += 1;
                    let single = PushBatch::from(vec![Arc::clone(&o.rumor)]);
                    out.push((dst, GossipWire::Push(Arc::new(single))));
                }
            }
            o.rumor.deadline > now
        });
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
                self.cfg.membership.len(),
            );
            let mut targets = Vec::new();
            match self.cfg.strategy {
                GossipStrategy::Random => self.peers.sample_into(k, rng, &mut targets),
                GossipStrategy::Expander => {
                    expander_targets(&self.cfg.membership, self.me, now, k, &mut targets)
                }
            }
            let batch = Arc::new(PushBatch::from(
                self.active.values().cloned().collect::<Vec<_>>(),
            ));
            for dst in targets {
                out.push((dst, GossipWire::Push(Arc::clone(&batch))));
            }
        }
        let heard = self.collab_this_round.len() + 1;
        self.collab_est = heard.max(self.collab_est.div_ceil(2));
        self.collab_this_round.clear();
        out
    }

    fn on_receive(&mut self, now: Round, src: ProcessId, wire: &Wire) {
        if !self.cfg.membership.contains(src) {
            return;
        }
        self.collab_this_round.insert(src);
        match wire {
            GossipWire::Push(batch) => {
                for rumor in batch.rumors() {
                    if !self.cfg.membership.contains(rumor.id.origin)
                        || rumor.deadline + 2 < now
                        || self.seen.contains_key(&rumor.id)
                    {
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
}

const N: usize = 6;
/// Births of pushed rumors lie this many rounds around `now`, so a push
/// mixes live, expiring and long-expired rumors.
const BIRTH_SPREAD: u64 = 6;

/// A pushed rumor, its birth relative to the current round. Its origin is
/// any process: a rumor enters an instance only at a member, so one from
/// outside the membership comes from a hostile peer.
#[derive(Clone, Debug)]
struct RumorSpec {
    origin: usize,
    back: u64,
    seq: u32,
    duration: u64,
    dest: u8,
    best_effort: bool,
}

#[derive(Clone, Copy, Debug)]
enum Order {
    Ascending,
    Shuffled,
    /// Ascending with some rumors repeated, some right after themselves.
    Repeating,
}

#[derive(Clone, Debug)]
enum Op {
    Inject {
        duration: u64,
        dest: u8,
        best_effort: bool,
    },
    /// Step in the current round, then move to the next one; with `hold`,
    /// keep the step's push batch until the next step, as a receiver
    /// that has not yet dropped it.
    Step {
        hold: bool,
    },
    Push {
        src: usize,
        rumors: Vec<RumorSpec>,
        order: Order,
        shuffle_seed: u64,
    },
    /// Echo the endpoint's own last push batch back from `src`, unchanged
    /// or reversed.
    Echo {
        src: usize,
        reversed: bool,
    },
    Ack {
        src: usize,
        picks: Vec<usize>,
    },
}

fn idset(mask: u8) -> IdSet {
    IdSet::from_iter(N, (0..N).filter(|i| mask >> i & 1 == 1).map(ProcessId::new))
}

/// `true` one time in five.
fn rarely() -> impl Strategy<Value = bool> {
    (0u8..5).prop_map(|x| x == 0)
}

/// A rumor whose sequence number is below `seqs`: few make pushes overlap,
/// many make a flood of distinct ids in `seen`.
fn rumor_spec(seqs: u32) -> impl Strategy<Value = RumorSpec> {
    (
        0..N,
        0..BIRTH_SPREAD,
        0..seqs,
        0u64..8,
        any::<u8>(),
        rarely(),
    )
        .prop_map(
            |(origin, back, seq, duration, dest, best_effort)| RumorSpec {
                origin,
                back,
                seq,
                duration,
                dest,
                best_effort,
            },
        )
}

fn op() -> impl Strategy<Value = Op> {
    let order = || {
        prop_oneof![
            Just(Order::Ascending),
            Just(Order::Shuffled),
            Just(Order::Repeating)
        ]
    };
    let push = move |seqs, len| {
        (
            0..N,
            prop::collection::vec(rumor_spec(seqs), len),
            order(),
            any::<u64>(),
        )
            .prop_map(|(src, rumors, order, shuffle_seed)| Op::Push {
                src,
                rumors,
                order,
                shuffle_seed,
            })
    };
    // Pushes and steps are listed twice: they are the bulk of an endpoint's
    // life.
    prop_oneof![
        (1u64..8, any::<u8>(), rarely()).prop_map(|(duration, dest, best_effort)| Op::Inject {
            duration,
            dest,
            best_effort
        }),
        prop::bool::ANY.prop_map(|hold| Op::Step { hold }),
        prop::bool::ANY.prop_map(|hold| Op::Step { hold }),
        push(3, 0..16),
        push(3, 0..16),
        push(64, 32..64),
        (0..N, prop::bool::ANY).prop_map(|(src, reversed)| Op::Echo { src, reversed }),
        (0..N, prop::collection::vec(0usize..64, 0..6))
            .prop_map(|(src, picks)| Op::Ack { src, picks }),
    ]
}

fn build(now: Round, specs: &[RumorSpec], order: Order, seed: u64) -> Vec<GossipRumor<u32>> {
    let mut rumors: Vec<_> = specs
        .iter()
        .map(|s| {
            let birth = Round(now.as_u64().saturating_sub(s.back));
            GossipRumor {
                id: RumorId {
                    origin: ProcessId::new(s.origin),
                    birth,
                    seq: s.seq,
                },
                payload: s.dest as u32,
                duration: s.duration,
                deadline: birth + s.duration,
                dest: idset(s.dest),
                best_effort: s.best_effort,
            }
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    match order {
        Order::Ascending => rumors.sort_by_key(|r| r.id),
        Order::Shuffled => rumors.shuffle(&mut rng),
        Order::Repeating => {
            let copies: Vec<_> = rumors.iter().step_by(2).cloned().collect();
            rumors.extend(copies);
            rumors.sort_by_key(|r| r.id);
        }
    }
    rumors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_dedup_matches_the_reference_endpoint(
        me in 0..N,
        members in any::<u8>(),
        expander in prop::bool::ANY,
        lean_fanout in prop::bool::ANY,
        seed in any::<u64>(),
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let me_id = ProcessId::new(me);
        let mut membership = idset(members);
        membership.insert(me_id);
        let mut cfg = GossipConfig::group(membership, Tag("oracle"));
        if expander {
            cfg = cfg.strategy(GossipStrategy::Expander);
        }
        if lean_fanout {
            cfg = cfg.fanout(FanoutParams::scaled(0.25).alpha(0.05));
        }
        let mut real = ContinuousGossip::new(me_id, N, cfg.clone());
        let mut model = Reference::new(me_id, N, cfg);
        let (mut rng_real, mut rng_model) =
            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        // Start late enough that births reach back before round 0 rarely.
        let mut now = Round(BIRTH_SPREAD);
        // The rumors of the last step's push, copied out: holding the
        // batch itself would keep the endpoint from refilling it.
        let mut last_batch: Option<Vec<Rumor>> = None;
        let mut held: Option<(Arc<PushBatch<u32>>, Vec<Rumor>)> = None;
        let mut acked: Vec<RumorId> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Inject { duration, dest, best_effort } => {
                    let dest = idset(*dest);
                    let payload = step as u32;
                    let id = if *best_effort {
                        real.inject_best_effort(now, payload, *duration, dest.clone())
                    } else {
                        real.inject(now, payload, *duration, dest.clone())
                    };
                    model.inject(now, payload, *duration, dest, *best_effort);
                    acked.push(id);
                }
                Op::Step { hold } => {
                    let got = real.step(now, &mut rng_real);
                    let want = model.step(now, &mut rng_model);
                    prop_assert_eq!(&got, &want, "step at {:?}", now);
                    for (_, wire) in &got {
                        if let GossipWire::Push(batch) = wire {
                            let ids: Vec<_> = batch.rumors().iter().map(|r| r.id).collect();
                            prop_assert_eq!(batch.ids(), &ids[..], "id column of a step's push");
                            prop_assert_eq!(
                                batch.wire_len(|r| r.len() as u64),
                                ids.len() as u64,
                                "wire size of a step's push"
                            );
                        }
                    }
                    if let Some((batch, rumors)) = held.take() {
                        prop_assert_eq!(batch.rumors(), &rumors[..], "a held batch changed");
                    }
                    if let Some((_, GossipWire::Push(batch))) = got.last() {
                        last_batch = Some(batch.rumors().to_vec());
                        if *hold {
                            held = Some((Arc::clone(batch), batch.rumors().to_vec()));
                        }
                    }
                    now = now.next();
                }
                Op::Push { src, rumors, order, shuffle_seed } => {
                    let rumors = build(now, rumors, *order, *shuffle_seed);
                    acked.extend(rumors.iter().map(|r| r.id));
                    let wire = GossipWire::Push(Arc::new(rumors.into()));
                    real.on_receive(now, ProcessId::new(*src), &wire);
                    model.on_receive(now, ProcessId::new(*src), &wire);
                }
                Op::Echo { src, reversed } => {
                    let Some(rumors) = &last_batch else { continue };
                    let mut rumors = rumors.clone();
                    if *reversed {
                        rumors.reverse();
                    }
                    let wire = GossipWire::Push(Arc::new(rumors.into()));
                    real.on_receive(now, ProcessId::new(*src), &wire);
                    model.on_receive(now, ProcessId::new(*src), &wire);
                }
                Op::Ack { src, picks } => {
                    let ids = picks
                        .iter()
                        .filter_map(|&i| acked.get(i % acked.len().max(1)).copied())
                        .collect();
                    let wire = GossipWire::Ack(ids);
                    real.on_receive(now, ProcessId::new(*src), &wire);
                    model.on_receive(now, ProcessId::new(*src), &wire);
                }
            }
            let got: Vec<_> = real.take_delivered().collect();
            let want: Vec<_> = model.delivered.drain(..).collect();
            prop_assert_eq!(got, want, "deliveries after op {} ({:?})", step, op);
            prop_assert_eq!(real.fallbacks(), model.fallbacks);
        }
        // Drain: every remaining rumor expires and every fallback fires.
        for _ in 0..16 {
            let got = real.step(now, &mut rng_real);
            let want = model.step(now, &mut rng_model);
            prop_assert_eq!(&got, &want, "drain step at {:?}", now);
            now = now.next();
        }
        prop_assert_eq!(real.fallbacks(), model.fallbacks);
    }
}
