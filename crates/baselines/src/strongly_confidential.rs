//! Strongly confidential gossip — the subject of Theorem 1.
//!
//! *Strong* confidentiality forbids any message causally dependent on a
//! rumor from ever reaching a process outside `ρ.D ∪ {source}`. Under that
//! restriction only destination-set members can collaborate: each process
//! forwards the rumors it knows, but a message to `q` may carry only rumors
//! with `q` in their destination set. Theorem 1 shows that under the
//! random-destination-set workload, almost no pair of rumors shares two
//! common members, so rumors cannot be batched and the total message count
//! is `Ω(n^{3/2−ε})` — the "price of strong confidentiality" that motivates
//! fragment-based CONGOS.
//!
//! The implementation mirrors the continuous-gossip substrate (epidemic
//! push + ack + deadline fallback) with the causal restriction enforced at
//! every send: targets are sampled from the rumor's own destination set.

use std::collections::{BTreeMap, HashMap};

use rand::seq::SliceRandom;

use congos_gossip::standalone::{Delivered, GossipInput};
use congos_sim::{Context, IdSet, Inbox, ProcessId, Protocol, Round, Tag};

/// Tag for strongly-confidential gossip traffic.
pub const TAG_STRONG: Tag = Tag("strong");

/// Identity of a rumor (restart-safe, as in the substrate).
pub(crate) type Rid = (ProcessId, Round, u32);

/// One rumor as carried by the strongly confidential protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrongRumor {
    rid: Rid,
    wid: u64,
    data: Vec<u8>,
    deadline: Round,
    dest: IdSet,
}

/// Wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrongMsg {
    /// A batch of rumors — every one of them has the receiver in its
    /// destination set (the strong-confidentiality constraint; checked in
    /// tests and by construction).
    Push(Vec<StrongRumor>),
    /// Acknowledgment of received rumors.
    Ack(Vec<Rid>),
}

struct OwnRumor {
    rumor: StrongRumor,
    unacked: IdSet,
}

/// A process running strongly confidential epidemic gossip.
pub struct StronglyConfidentialNode {
    n: usize,
    /// Rumors this process knows and may still forward.
    active: BTreeMap<Rid, StrongRumor>,
    seen: HashMap<Rid, Round>,
    own: BTreeMap<Rid, OwnRumor>,
    pending_acks: BTreeMap<ProcessId, Vec<Rid>>,
    next_seq: u32,
    last_inject: Round,
    /// Per-round forwarding fanout within a rumor's destination set.
    fanout: usize,
}

impl Protocol for StronglyConfidentialNode {
    type Msg = StrongMsg;
    type Input = GossipInput;
    type Output = Delivered;

    fn new(_id: ProcessId, n: usize, _seed: u64) -> Self {
        StronglyConfidentialNode {
            n,
            active: BTreeMap::new(),
            seen: HashMap::new(),
            own: BTreeMap::new(),
            pending_acks: BTreeMap::new(),
            next_seq: 0,
            last_inject: Round::ZERO,
            fanout: 3,
        }
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        match msg {
            StrongMsg::Push(rumors) => rumors
                .iter()
                .map(|r| r.data.len() as u64 + r.dest.universe().div_ceil(8) as u64 + 32)
                .sum(),
            StrongMsg::Ack(ids) => 16 * ids.len() as u64,
        }
    }

    fn send(&mut self, ctx: &mut Context<'_, Self>) {
        let now = ctx.round();
        let me = ctx.id();
        self.active.retain(|_, r| r.deadline >= now);
        if self.seen.len() > 4096 {
            self.seen.retain(|_, dl| *dl + 2 >= now);
        }

        for (dst, ids) in std::mem::take(&mut self.pending_acks) {
            ctx.send(dst, StrongMsg::Ack(ids), TAG_STRONG);
        }

        // Deadline fallback by the source, to unacked destinations.
        let expiring: Vec<Rid> = self
            .own
            .iter()
            .filter(|(_, o)| o.rumor.deadline == now)
            .map(|(rid, _)| *rid)
            .collect();
        for rid in expiring {
            let o = self.own.remove(&rid).expect("present");
            for dst in o.unacked.iter() {
                ctx.send(dst, StrongMsg::Push(vec![o.rumor.clone()]), TAG_STRONG);
            }
        }
        self.own.retain(|_, o| o.rumor.deadline > now);

        // Epidemic forwarding: per rumor, to random members of *its own
        // destination set* — the strong-confidentiality constraint. Batches
        // per target: a target receives one envelope with every applicable
        // rumor (merging is allowed exactly when destination sets overlap,
        // which is what Theorem 1's workload makes rare).
        let mut per_target: BTreeMap<ProcessId, Vec<StrongRumor>> = BTreeMap::new();
        for rumor in self.active.values() {
            let members: Vec<ProcessId> = rumor.dest.iter().filter(|p| *p != me).collect();
            let k = self.fanout.min(members.len());
            for dst in members.choose_multiple(ctx.rng(), k) {
                per_target.entry(*dst).or_default().push(rumor.clone());
            }
        }
        for (dst, batch) in per_target {
            ctx.send(dst, StrongMsg::Push(batch), TAG_STRONG);
        }
    }

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    ) {
        let now = ctx.round();
        let me = ctx.id();
        for env in inbox {
            match env.payload {
                StrongMsg::Push(rumors) => {
                    for rumor in rumors {
                        debug_assert!(
                            rumor.dest.contains(me),
                            "strong confidentiality violated on the wire"
                        );
                        if self.seen.contains_key(&rumor.rid) {
                            continue;
                        }
                        self.seen.insert(rumor.rid, rumor.deadline);
                        ctx.output(Delivered {
                            wid: rumor.wid,
                            data: rumor.data.clone(),
                        });
                        if rumor.rid.0 != me {
                            self.pending_acks
                                .entry(rumor.rid.0)
                                .or_default()
                                .push(rumor.rid);
                        }
                        if rumor.deadline >= now {
                            self.active.insert(rumor.rid, rumor.clone());
                        }
                    }
                }
                StrongMsg::Ack(ids) => {
                    for rid in ids {
                        if let Some(o) = self.own.get_mut(rid) {
                            o.unacked.remove(env.src);
                        }
                    }
                }
            }
        }
        if let Some(inj) = input {
            if now != self.last_inject {
                self.last_inject = now;
                self.next_seq = 0;
            }
            let rid: Rid = (me, now, self.next_seq);
            self.next_seq += 1;
            let dest = IdSet::from_iter(self.n, inj.dest.iter().copied());
            let rumor = StrongRumor {
                rid,
                wid: inj.wid,
                data: inj.data,
                deadline: now + inj.deadline,
                dest,
            };
            self.seen.insert(rid, rumor.deadline);
            if rumor.dest.contains(me) {
                ctx.output(Delivered {
                    wid: rumor.wid,
                    data: rumor.data.clone(),
                });
            }
            let mut unacked = rumor.dest.clone();
            unacked.remove(me);
            self.own.insert(
                rid,
                OwnRumor {
                    rumor: rumor.clone(),
                    unacked,
                },
            );
            self.active.insert(rid, rumor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec, Theorem1Workload};
    use congos_sim::{Engine, EngineConfig, EnvelopeRef, NullObserver, Observer};

    #[test]
    fn delivers_within_destination_set_only() {
        let n = 16;
        let dest: Vec<ProcessId> = vec![2, 5, 9].into_iter().map(ProcessId::new).collect();
        let spec = RumorSpec::new(0, vec![1; 8], 32, dest.clone());
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<StronglyConfidentialNode>::new(EngineConfig::new(n).seed(3));

        // Observer asserting no envelope ever reaches a non-member.
        struct Wiretap {
            dest: Vec<ProcessId>,
        }
        impl Observer<StronglyConfidentialNode> for Wiretap {
            fn on_deliver(&mut self, env: EnvelopeRef<'_, StrongMsg>) {
                if let StrongMsg::Push(rumors) = &env.payload {
                    for r in rumors {
                        assert!(
                            r.dest.contains(env.dst) || r.rid.0 == env.dst,
                            "rumor leaked to {}",
                            env.dst
                        );
                    }
                }
            }
        }
        let mut tap = Wiretap { dest: dest.clone() };
        let _ = &mut tap.dest;
        e.run_observed(33, &mut adv, &mut tap);
        let receivers: Vec<ProcessId> = e.outputs().iter().map(|o| o.process).collect();
        for d in &dest {
            assert!(receivers.contains(d));
        }
        assert!(receivers.iter().all(|r| dest.contains(r)));
    }

    #[test]
    fn theorem1_workload_prevents_batching() {
        // Under the Theorem-1 workload, messages should carry few rumors:
        // count envelopes vs rumor-copies to estimate the batching factor.
        let n = 128;
        let mut adv = CrriAdversary::new(NoFailures, Theorem1Workload::new(4.0, 32, 7));
        let mut e = Engine::<StronglyConfidentialNode>::new(EngineConfig::new(n).seed(4));

        struct BatchMeter {
            envelopes: u64,
            copies: u64,
        }
        impl Observer<StronglyConfidentialNode> for BatchMeter {
            fn on_deliver(&mut self, env: EnvelopeRef<'_, StrongMsg>) {
                if let StrongMsg::Push(rumors) = &env.payload {
                    self.envelopes += 1;
                    self.copies += rumors.len() as u64;
                }
            }
        }
        let mut meter = BatchMeter {
            envelopes: 0,
            copies: 0,
        };
        e.run_observed(33, &mut adv, &mut meter);
        assert!(meter.envelopes > 0);
        let factor = meter.copies as f64 / meter.envelopes as f64;
        assert!(
            factor < 2.0,
            "strong confidentiality should prevent batching; got {factor:.2}"
        );
        let _ = NullObserver;
    }
}
