//! Direct unicast: the trivial confidential baseline.

use congos_gossip::standalone::{Delivered, GossipInput};
use congos_sim::{Context, Inbox, ProcessId, Protocol, Tag};

/// Tag for direct-unicast traffic.
pub const TAG_DIRECT: Tag = Tag("direct");

/// A rumor in flight: workload id plus bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectMsg {
    /// Workload rumor id.
    pub wid: u64,
    /// Rumor bytes.
    pub data: Vec<u8>,
}

/// Each source unicasts every rumor straight to its destination set in the
/// round after injection. No collaboration, no relays — confidential by
/// construction and trivially timely (any deadline ≥ 1 is met), but the
/// per-round message complexity is the full `Σ|D|` of the injected rumors:
/// nothing is ever batched across sources.
pub struct DirectNode;

impl Protocol for DirectNode {
    type Msg = DirectMsg;
    type Input = GossipInput;
    type Output = Delivered;

    fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
        DirectNode
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        msg.data.len() as u64 + 16
    }

    fn send(&mut self, _ctx: &mut Context<'_, Self>) {}

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    ) {
        for env in inbox {
            ctx.output(Delivered {
                wid: env.payload.wid,
                data: env.payload.data.clone(),
            });
        }
        if let Some(inj) = input {
            let me = ctx.id();
            if inj.dest.contains(&me) {
                ctx.output(Delivered {
                    wid: inj.wid,
                    data: inj.data.clone(),
                });
            }
            for dst in inj.dest {
                if dst != me {
                    ctx.send(
                        dst,
                        DirectMsg {
                            wid: inj.wid,
                            data: inj.data.clone(),
                        },
                        TAG_DIRECT,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
    use congos_sim::{Engine, EngineConfig, Round};

    #[test]
    fn delivers_to_every_destination_next_round() {
        let n = 8;
        let dest: Vec<ProcessId> = vec![1, 2, 3].into_iter().map(ProcessId::new).collect();
        let spec = RumorSpec::new(0, vec![7], 4, dest.clone());
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<DirectNode>::new(EngineConfig::new(n));
        e.run(2, &mut adv);
        assert_eq!(e.outputs().len(), 3);
        assert!(e.outputs().iter().all(|o| o.round == Round(1)));
        assert_eq!(e.metrics().total_of(TAG_DIRECT), 3);
    }

    #[test]
    fn source_in_dest_delivers_locally_without_a_message() {
        let n = 4;
        let src = ProcessId::new(0);
        let spec = RumorSpec::new(0, vec![7], 4, vec![src]);
        let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), vec![(src, spec)]));
        let mut e = Engine::<DirectNode>::new(EngineConfig::new(n));
        e.run(2, &mut adv);
        assert_eq!(e.outputs().len(), 1);
        assert_eq!(e.metrics().total(), 0);
    }
}
