//! The substrate as a standalone protocol.
//!
//! [`GossipNode`] wraps a single unfiltered [`ContinuousGossip`] instance as
//! a full [`congos_sim::Protocol`], so the substrate can be exercised
//! end-to-end against the engine and the CRRI adversaries. It is also the
//! "plain epidemic continuous gossip" comparator: efficient, deadline-
//! meeting — and completely non-confidential, since rumors transit arbitrary
//! relays in the clear.

use congos_adversary::RumorSpec;
use congos_sim::{Context, IdSet, Inbox, ProcessId, Protocol, Tag};

use crate::rumor::GossipRumor;
use crate::service::{ContinuousGossip, GossipConfig, GossipWire};

/// Payload carried for standalone runs: the workload rumor id plus bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StandalonePayload {
    /// Workload-assigned rumor id (for correlating deliveries).
    pub wid: u64,
    /// Rumor bytes.
    pub data: Vec<u8>,
}

/// Input to a [`GossipNode`]: a rumor to gossip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipInput {
    /// Workload rumor id.
    pub wid: u64,
    /// Rumor bytes.
    pub data: Vec<u8>,
    /// Deadline duration in rounds.
    pub deadline: u64,
    /// Destination processes.
    pub dest: Vec<ProcessId>,
}

impl From<RumorSpec> for GossipInput {
    fn from(spec: RumorSpec) -> Self {
        GossipInput {
            wid: spec.id,
            data: spec.data,
            deadline: spec.deadline,
            dest: spec.dest,
        }
    }
}

/// A delivered rumor, as reported by a [`GossipNode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivered {
    /// Workload rumor id.
    pub wid: u64,
    /// Rumor bytes.
    pub data: Vec<u8>,
}

/// Tag used by standalone gossip traffic.
pub const GOSSIP_TAG: Tag = Tag("gossip");

/// One process running plain (non-confidential) continuous gossip.
pub struct GossipNode {
    svc: ContinuousGossip<StandalonePayload>,
    n: usize,
}

impl GossipNode {
    /// Creates a node with an explicit gossip configuration (strategy,
    /// fanout, membership) — pair with
    /// [`congos_sim::Engine::with_factory`].
    pub fn with_config(id: ProcessId, n: usize, cfg: GossipConfig) -> Self {
        GossipNode {
            svc: ContinuousGossip::new(id, n, cfg),
            n,
        }
    }

    /// Fallback count for this node (see Lemma 10-style experiments).
    pub fn fallbacks(&self) -> u64 {
        self.svc.fallbacks()
    }
}

impl Protocol for GossipNode {
    type Msg = GossipWire<StandalonePayload>;
    type Input = GossipInput;
    type Output = Delivered;

    fn new(id: ProcessId, n: usize, _seed: u64) -> Self {
        GossipNode {
            svc: ContinuousGossip::new(id, n, GossipConfig::all(n, GOSSIP_TAG)),
            n,
        }
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        match msg {
            GossipWire::Push(rumors) => rumors
                .iter()
                .map(|r| {
                    r.payload.data.len() as u64
                        + r.dest.universe().div_ceil(8) as u64
                        + 40
                })
                .sum(),
            GossipWire::Ack(ids) => 16 * ids.len() as u64,
        }
    }

    fn send(&mut self, ctx: &mut Context<'_, Self>) {
        let now = ctx.round();
        let (rng, out) = ctx.rng_and_out();
        self.svc
            .step_with(now, rng, |dst, wire| out.push(dst, GOSSIP_TAG, wire));
    }

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    ) {
        let now = ctx.round();
        for env in inbox {
            self.svc.on_receive(now, env.src, env.payload.clone());
        }
        if let Some(inj) = input {
            let dest = IdSet::from_iter(self.n, inj.dest.iter().copied());
            self.svc.inject(
                now,
                StandalonePayload {
                    wid: inj.wid,
                    data: inj.data,
                },
                inj.deadline,
                dest,
            );
        }
        for r in self.svc.take_delivered() {
            deliver(ctx, r);
        }
    }
}

fn deliver(ctx: &mut Context<'_, GossipNode>, r: GossipRumor<StandalonePayload>) {
    ctx.output(Delivered {
        wid: r.payload.wid,
        data: r.payload.data,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{
        CrriAdversary, NoFailures, OneShot, PoissonWorkload, RandomChurn, RumorSpec,
    };
    use congos_sim::{Engine, EngineConfig, Round};

    mod congos_gossip_expander_reexport {
        pub use crate::expander::GossipStrategy;
    }

    #[test]
    fn rumor_reaches_all_destinations_by_deadline() {
        let n = 32;
        let dest: Vec<ProcessId> = (1..=5).map(ProcessId::new).collect();
        let spec = RumorSpec::new(0, vec![0xAB; 8], 24, dest.clone());
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<GossipNode>::new(EngineConfig::new(n).seed(17));
        e.run(25, &mut adv);
        let receivers: Vec<ProcessId> = e
            .outputs()
            .iter()
            .filter(|o| o.value.wid == 0)
            .map(|o| o.process)
            .collect();
        for d in dest {
            assert!(receivers.contains(&d), "{d} missed the rumor");
        }
        assert!(e
            .outputs()
            .iter()
            .all(|o| o.round.as_u64() <= 24, ), "all deliveries within deadline");
    }

    #[test]
    fn continuous_injection_under_churn_meets_qod_for_admissible() {
        let n = 24;
        let deadline = 32u64;
        let rounds = 128u64;
        let workload = PoissonWorkload::new(0.05, 4, deadline, 5).until(Round(rounds - deadline));
        let churn = RandomChurn::new(0.01, 0.2, 6);
        let mut adv = CrriAdversary::new(churn, workload);
        let mut e = Engine::<GossipNode>::new(EngineConfig::new(n).seed(18));
        e.run(rounds, &mut adv);

        // Check QoD: every admissible (source continuously alive, dest
        // continuously alive) injection is delivered by its deadline.
        let log: Vec<_> = adv.workload().log().to_vec();
        let mut checked = 0;
        for entry in &log {
            let t = entry.round;
            let end = t + entry.spec.deadline;
            if !e.liveness().continuously_alive(entry.source, t, end) {
                continue; // not admissible
            }
            for d in &entry.spec.dest {
                if !e.liveness().continuously_alive(*d, t, end) {
                    continue;
                }
                checked += 1;
                let got = e.outputs().iter().any(|o| {
                    o.process == *d && o.value.wid == entry.spec.id && o.round <= end
                });
                assert!(
                    got,
                    "admissible rumor {} (inj {t}) missed {d} by {end}",
                    entry.spec.id
                );
            }
        }
        assert!(checked > 10, "workload too thin to be meaningful: {checked}");
    }

    #[test]
    fn expander_strategy_delivers_standalone() {
        use congos_gossip_expander_reexport::*;
        let n = 16;
        let dest: Vec<ProcessId> = (1..=4).map(ProcessId::new).collect();
        let spec = RumorSpec::new(0, vec![5; 8], 32, dest.clone());
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<GossipNode>::with_factory(
            EngineConfig::new(n).seed(23),
            move |id, n, _s| {
                GossipNode::with_config(
                    id,
                    n,
                    GossipConfig::all(n, GOSSIP_TAG).strategy(GossipStrategy::Expander),
                )
            },
        );
        e.run(33, &mut adv);
        for d in dest {
            assert!(
                e.outputs().iter().any(|o| o.process == d),
                "{d} missed over expander schedule"
            );
        }
    }

    #[test]
    fn per_round_complexity_is_bounded() {
        let n = 64;
        let spec = |i: u64| {
            RumorSpec::new(
                i,
                vec![1],
                48,
                vec![ProcessId::new(((i + 1) % n as u64) as usize)],
            )
        };
        let batch: Vec<_> = (0..n as u64)
            .map(|i| (ProcessId::new(i as usize), spec(i)))
            .collect();
        let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), batch));
        let mut e = Engine::<GossipNode>::new(EngineConfig::new(n).seed(19));
        e.run(49, &mut adv);
        // With the cap, per-round traffic can never exceed n(n-1) and in a
        // benign run acks keep the fallback at zero.
        let max = e.metrics().max_per_round();
        assert!(max <= 2 * (n * n) as u64, "cap: pushes + acks bounded, got {max}");
        assert!(max > 0);
    }
}
