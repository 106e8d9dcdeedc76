//! Plain epidemic continuous gossip — the non-confidential reference.
//!
//! This is the substrate run bare: rumors transit arbitrary relays in the
//! clear, so *every* process may learn *every* rumor — the total loss of
//! confidentiality that motivates the paper. It is the efficiency yardstick:
//! CONGOS aims for the same collaborative complexity while leaking nothing.

/// The plain epidemic node (an alias for the substrate's standalone node —
/// the protocol is literally the black box without filters).
pub type PlainEpidemicNode = congos_gossip::GossipNode;

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
    use congos_gossip::GossipWire;
    use congos_sim::{Engine, EngineConfig, EnvelopeRef, Observer, ProcessId, Round};

    #[test]
    fn plain_epidemic_leaks_rumors_to_relays() {
        // The motivating failure: some process outside the destination set
        // receives the cleartext rumor.
        let n = 16;
        let dest = vec![ProcessId::new(9)];
        let spec = RumorSpec::new(0, vec![0xAA; 8], 32, dest.clone());
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<PlainEpidemicNode>::new(EngineConfig::new(n).seed(5));

        struct LeakMeter {
            dest: Vec<ProcessId>,
            leaks: u64,
        }
        impl Observer<PlainEpidemicNode> for LeakMeter {
            fn on_deliver(
                &mut self,
                env: EnvelopeRef<'_, GossipWire<congos_gossip::standalone::StandalonePayload>>,
            ) {
                if let GossipWire::Push(batch) = &env.payload {
                    for r in batch.rumors() {
                        if !self.dest.contains(&env.dst) && r.id.origin != env.dst {
                            self.leaks += 1;
                        }
                    }
                }
            }
        }
        let mut meter = LeakMeter {
            dest: dest.clone(),
            leaks: 0,
        };
        e.run_observed(33, &mut adv, &mut meter);
        assert!(
            meter.leaks > 0,
            "plain epidemic must leak rumor content to relays"
        );
        // ...and still deliver correctly, of course.
        assert!(e.outputs().iter().any(|o| o.process == dest[0]));
    }
}
