//! Simulated cryptographic multicast — the paper's "alternative approach".
//!
//! The paper's discussion of cryptographic solutions (Section 1,
//! "Alternative approaches"): give each destination group a shared key;
//! establishing or changing a key costs messages to every member, after
//! which rumors are encrypted once and delivered per member. *"The
//! cryptographic solutions will be more efficient when the groupings are
//! stable … we are not aware of any sub-quadratic cryptographic approach
//! when the groups are changing rapidly."*
//!
//! This comparator makes that accounting measurable, with **no real
//! cryptography** (what the paper used: a hypothetical PKI/group-key
//! scheme; what we build: a message-count-faithful model; why the
//! substitution is sound: only per-round message complexity is compared,
//! never cryptographic strength — see DESIGN.md §2.5):
//!
//! * the first rumor a source sends to a given destination set pays a
//!   **re-key**: one `KeyOffer` to each member, one `KeyAck` back;
//! * once keyed, each rumor costs one `Cipher` unicast per member
//!   (point-to-point networks have no free multicast);
//! * every *distinct* destination set needs its own key — a fresh group per
//!   rumor re-keys every time, which is exactly the dynamic-group regime
//!   where the paper argues cryptography struggles (experiment E8).
//!
//! The model is failure-free (re-keying under crash/restart would only add
//! cost to this baseline, making the comparison conservative in its favor).

use std::collections::HashMap;

use congos_gossip::standalone::{Delivered, GossipInput};
use congos_sim::{Context, Inbox, ProcessId, Protocol, Tag};

/// Tag for key-establishment traffic.
pub const TAG_REKEY: Tag = Tag("rekey");
/// Tag for encrypted rumor deliveries.
pub const TAG_MCAST: Tag = Tag("mcast");

/// Wire messages of the simulated crypto multicast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CryptoMsg {
    /// "Here is the new group key" (content abstracted away).
    KeyOffer {
        /// Identifier of the group being keyed.
        gid: u64,
    },
    /// "Key installed."
    KeyAck {
        /// Identifier of the keyed group.
        gid: u64,
    },
    /// An encrypted rumor (content modeled in the clear; only counts
    /// matter).
    Cipher {
        /// Workload rumor id.
        wid: u64,
        /// Rumor bytes.
        data: Vec<u8>,
    },
}

struct GroupKey {
    members: Vec<ProcessId>,
    acks_missing: usize,
    queued: Vec<(u64, Vec<u8>)>,
}

/// A process running the simulated group-key multicast.
pub struct CryptoMulticastNode {
    /// Keys this source has established (or is establishing), by group id.
    keys: HashMap<u64, GroupKey>,
    /// Deterministic group-id assignment for destination sets seen here.
    gids: HashMap<Vec<ProcessId>, u64>,
    next_gid: u64,
    /// Total re-keys performed (for experiment tables).
    rekeys: u64,
}

impl CryptoMulticastNode {
    /// Number of key establishments this source performed.
    pub fn rekeys(&self) -> u64 {
        self.rekeys
    }
}

impl Protocol for CryptoMulticastNode {
    type Msg = CryptoMsg;
    type Input = GossipInput;
    type Output = Delivered;

    fn new(id: ProcessId, _n: usize, _seed: u64) -> Self {
        CryptoMulticastNode {
            keys: HashMap::new(),
            gids: HashMap::new(),
            next_gid: (id.as_usize() as u64) << 32,
            rekeys: 0,
        }
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        match msg {
            CryptoMsg::KeyOffer { .. } => 64, // key material
            CryptoMsg::KeyAck { .. } => 16,
            CryptoMsg::Cipher { data, .. } => data.len() as u64 + 24,
        }
    }

    fn send(&mut self, _ctx: &mut Context<'_, Self>) {}

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    ) {
        let me = ctx.id();
        for env in inbox {
            match env.payload {
                CryptoMsg::KeyOffer { gid } => {
                    ctx.send(env.src, CryptoMsg::KeyAck { gid: *gid }, TAG_REKEY);
                }
                CryptoMsg::KeyAck { gid } => {
                    let mut ready: Vec<(Vec<ProcessId>, u64, Vec<u8>)> = Vec::new();
                    if let Some(k) = self.keys.get_mut(gid) {
                        k.acks_missing = k.acks_missing.saturating_sub(1);
                        if k.acks_missing == 0 {
                            for (wid, data) in k.queued.drain(..) {
                                ready.push((k.members.clone(), wid, data));
                            }
                        }
                    }
                    for (members, wid, data) in ready {
                        multicast(ctx, me, &members, wid, data);
                    }
                }
                CryptoMsg::Cipher { wid, data } => {
                    ctx.output(Delivered {
                        wid: *wid,
                        data: data.clone(),
                    });
                }
            }
        }
        if let Some(inj) = input {
            let mut members = inj.dest.clone();
            members.sort_unstable();
            members.dedup();
            if members.contains(&me) {
                ctx.output(Delivered {
                    wid: inj.wid,
                    data: inj.data.clone(),
                });
            }
            let gid = *self.gids.entry(members.clone()).or_insert_with(|| {
                self.next_gid += 1;
                self.next_gid
            });
            let others: Vec<ProcessId> = members.iter().copied().filter(|p| *p != me).collect();
            if others.is_empty() {
                return;
            }
            match self.keys.get_mut(&gid) {
                Some(k) if k.acks_missing == 0 => {
                    // Key established: one encrypted unicast per member.
                    multicast(ctx, me, &others, inj.wid, inj.data);
                }
                Some(k) => {
                    // Key establishment in flight: queue behind it.
                    k.queued.push((inj.wid, inj.data));
                }
                None => {
                    // Re-key: offer to each member; queue the rumor.
                    self.rekeys += 1;
                    for dst in &others {
                        ctx.send(*dst, CryptoMsg::KeyOffer { gid }, TAG_REKEY);
                    }
                    self.keys.insert(
                        gid,
                        GroupKey {
                            members: others.clone(),
                            acks_missing: others.len(),
                            queued: vec![(inj.wid, inj.data)],
                        },
                    );
                }
            }
        }
    }
}

fn multicast(
    ctx: &mut Context<'_, CryptoMulticastNode>,
    me: ProcessId,
    members: &[ProcessId],
    wid: u64,
    data: Vec<u8>,
) {
    for dst in members {
        if *dst != me {
            ctx.send(
                *dst,
                CryptoMsg::Cipher {
                    wid,
                    data: data.clone(),
                },
                TAG_MCAST,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
    use congos_sim::{Engine, EngineConfig, Round};

    fn run_rumors(rumors: Vec<(u64, Vec<ProcessId>)>) -> Engine<CryptoMulticastNode> {
        let n = 8;
        let batch: Vec<_> = rumors
            .into_iter()
            .map(|(wid, dest)| (ProcessId::new(0), RumorSpec::new(wid, vec![1], 16, dest)))
            .collect();
        // One rumor per round per process: spread the batch over rounds.
        let mut e = Engine::<CryptoMulticastNode>::new(EngineConfig::new(n));
        for (i, item) in batch.into_iter().enumerate() {
            let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(i as u64), vec![item]));
            e.step(&mut adv);
        }
        let mut adv = CrriAdversary::new(NoFailures, congos_adversary::NoInjections);
        e.run(8, &mut adv);
        e
    }

    #[test]
    fn first_use_pays_rekey_then_multicast() {
        let dest: Vec<ProcessId> = vec![1, 2, 3].into_iter().map(ProcessId::new).collect();
        let e = run_rumors(vec![(0, dest.clone())]);
        assert_eq!(e.metrics().total_of(TAG_REKEY), 6, "3 offers + 3 acks");
        assert_eq!(e.metrics().total_of(TAG_MCAST), 3);
        assert_eq!(e.outputs().len(), 3);
    }

    #[test]
    fn stable_group_amortizes_rekey() {
        let dest: Vec<ProcessId> = vec![1, 2, 3].into_iter().map(ProcessId::new).collect();
        let e = run_rumors(vec![(0, dest.clone()), (1, dest.clone()), (2, dest)]);
        // One re-key for three rumors.
        assert_eq!(e.metrics().total_of(TAG_REKEY), 6);
        assert_eq!(e.metrics().total_of(TAG_MCAST), 9);
        assert_eq!(e.outputs().len(), 9);
    }

    #[test]
    fn fresh_groups_rekey_every_time() {
        let mk = |ids: &[usize]| ids.iter().map(|i| ProcessId::new(*i)).collect::<Vec<_>>();
        let e = run_rumors(vec![(0, mk(&[1, 2])), (1, mk(&[3, 4])), (2, mk(&[5, 6]))]);
        assert_eq!(e.metrics().total_of(TAG_REKEY), 12, "every rumor re-keys");
        assert_eq!(e.outputs().len(), 6);
    }
}
