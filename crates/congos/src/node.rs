//! The CONGOS process: the full confidential-gossip protocol as a
//! [`congos_sim::Protocol`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use congos_gossip::GossipCensus;
use congos_sim::clock::{deadline_cap, trim_deadline};
use congos_sim::{Context, IdSet, Inbox, ProcessId, Protocol, Round};

use crate::config::CongosConfig;
use crate::messages::{CongosMsg, Fragment};
use crate::partition::PartitionSet;
use crate::rumor::{self, CongosInput, CongosRumorId, DeliveredRumor, DeliveryPath, Rumor};
use crate::services::class_engine::ClassEngine;
use crate::services::expiry::ExpiryRing;
use crate::split;

/// Node-level statistics for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Rumors injected at this process.
    pub injected: u64,
    /// Rumors confirmed through the pipeline.
    pub confirmed: u64,
    /// Rumors that needed the deadline fallback.
    pub fallbacks: u64,
    /// Rumors sent directly (deadline below the pipeline threshold, or the
    /// degenerate collusion regime).
    pub direct: u64,
    /// Substrate (GroupGossip/AllGossip) deadline fallbacks.
    pub gossip_fallbacks: u64,
    /// Cover-traffic decoys this process injected (Section 7 extension).
    pub decoys_injected: u64,
    /// Decoy payloads this process reassembled and discarded.
    pub decoys_discarded: u64,
    /// Received messages dropped as ones no correct process sends (an
    /// impossible deadline class or partition index, a fragment outside its
    /// group or class or of a split no correct process makes, a fallback
    /// `Shoot` of an impossible class, a rumor id born after the current
    /// round, a fragment or `Shoot` past its rumor's horizon).
    /// Always 0 in the simulator; over sockets it counts corrupt or hostile
    /// frames that still decoded.
    pub rejected: u64,
}

impl std::ops::AddAssign for NodeStats {
    fn add_assign(&mut self, other: Self) {
        self.injected += other.injected;
        self.confirmed += other.confirmed;
        self.fallbacks += other.fallbacks;
        self.direct += other.direct;
        self.gossip_fallbacks += other.gossip_fallbacks;
        self.decoys_injected += other.decoys_injected;
        self.decoys_discarded += other.decoys_discarded;
        self.rejected += other.rejected;
    }
}

/// Entry counts of a node's per-rumor tables ([`CongosNode::census`]),
/// summed over its deadline classes and partitions. Every table drops a
/// rumor once its horizon has passed, so an idle node's census falls to
/// zero within `2·deadline + 1` rounds of its last rumor's birth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateCensus {
    /// Reassembly entries, one per (rumor, partition).
    pub parts: usize,
    /// Delivery-dedup entries.
    pub delivered: usize,
    /// Distinct rumors with a reassembly or dedup entry.
    pub retained_rumors: usize,
    /// Own rumors awaiting confirmation in the class caches.
    pub cached: usize,
    /// The GroupGossip and AllGossip endpoints' tables.
    pub gossip: GossipCensus,
    /// Proxy fragments waiting for the next block.
    pub proxy_waiting: usize,
    /// Proxy fragments being distributed this block.
    pub proxy_rumors: usize,
    /// Fragments received as a proxy, pending re-share.
    pub proxy_buffer: usize,
    /// GroupDistribution fragments waiting for the next block.
    pub gd_waiting: usize,
    /// GroupDistribution fragments being distributed this block.
    pub gd_partials: usize,
    /// GroupDistribution hit-set entries.
    pub gd_hits: usize,
}

impl StateCensus {
    /// `true` when the node holds no per-rumor state at all.
    pub fn is_empty(&self) -> bool {
        *self == StateCensus::default()
    }
}

/// Deadline classes shorter than this bypass the pipeline and are sent
/// directly by the source (the paper assumes `dline > 48`; below that the
/// desired bound "can be trivially met simply by sending rumors directly",
/// Section 5). Shorter classes leave blocks with no whole iteration.
const DIRECT_THRESHOLD: u64 = 32;

struct PartsEntry {
    k: u8,
    wid: u64,
    /// Fragment bytes by group, sharing the received fragments' allocations.
    got: BTreeMap<u8, Arc<[u8]>>,
}

/// One process running CONGOS.
///
/// Built via [`Protocol::new`] (base configuration) or
/// [`CongosNode::with_config`] through
/// [`congos_sim::Engine::with_factory`] for configured deployments.
pub struct CongosNode {
    me: ProcessId,
    n: usize,
    cfg: CongosConfig,
    /// [`deadline_cap`] of `n`, the paper's `c·log⁶ n`, computed once.
    deadline_cap: u64,
    /// The agreed partition table, shared by every node of this OS process
    /// built with the same `n` and configuration.
    partitions: Arc<PartitionSet>,
    /// `None` = alive since the beginning of the execution (treated as
    /// "alive forever", matching the paper's long-running system); `Some(t)`
    /// = restarted at `t`.
    alive_since: Option<Round>,
    classes: BTreeMap<u64, ClassEngine>,
    /// Saved fragments for reassembly: `(rumor, partition) → group → bytes`.
    parts: HashMap<(CongosRumorId, u16), PartsEntry>,
    delivered: HashSet<CongosRumorId>,
    /// Expiry indexes over `parts` / `delivered`, one bucket per horizon
    /// round: the prune of every round walks only the keys that expired.
    parts_expiry: ExpiryRing<(CongosRumorId, u16)>,
    delivered_expiry: ExpiryRing<CongosRumorId>,
    /// Fragments received in the current compute phase, drained through
    /// `save_fragment`; kept for its capacity.
    received: Vec<Fragment>,
    injected: u64,
    direct: u64,
    decoys_injected: u64,
    decoys_discarded: u64,
    rejected: u64,
    seq_in_round: (Round, u32),
}

impl CongosNode {
    /// Creates a node with an explicit configuration. All processes of a
    /// deployment must receive identical configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for `n` processes.
    pub fn with_config(me: ProcessId, n: usize, cfg: CongosConfig) -> Self {
        if let Err(e) = cfg.validate(n) {
            panic!("invalid CONGOS configuration for n={n}: {e}");
        }
        let partitions = PartitionSet::agreed(n, &cfg);
        CongosNode {
            me,
            n,
            deadline_cap: deadline_cap(n),
            cfg,
            partitions,
            alive_since: None,
            classes: BTreeMap::new(),
            parts: HashMap::new(),
            delivered: HashSet::new(),
            parts_expiry: ExpiryRing::new(),
            delivered_expiry: ExpiryRing::new(),
            received: Vec::new(),
            injected: 0,
            direct: 0,
            decoys_injected: 0,
            decoys_discarded: 0,
            rejected: 0,
            seq_in_round: (Round::ZERO, 0),
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &CongosConfig {
        &self.cfg
    }

    /// The agreed partition set ([`PartitionSet::agreed`]), shared with
    /// every node of this OS process built for the same `n` and
    /// configuration.
    pub fn partitions(&self) -> &PartitionSet {
        &self.partitions
    }

    /// The entry counts of every per-rumor table this node keeps. The
    /// prune of every send phase drops a rumor's reassembly and dedup
    /// entries once its horizon passes.
    pub fn census(&self) -> StateCensus {
        let parts = self.parts.keys().map(|(rid, _)| rid);
        let mut census = StateCensus {
            parts: self.parts.len(),
            delivered: self.delivered.len(),
            retained_rumors: parts.chain(&self.delivered).collect::<HashSet<_>>().len(),
            ..StateCensus::default()
        };
        for class in self.classes.values() {
            class.count(&mut census);
        }
        census
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> NodeStats {
        let mut stats = NodeStats {
            injected: self.injected,
            direct: self.direct,
            decoys_injected: self.decoys_injected,
            decoys_discarded: self.decoys_discarded,
            rejected: self.rejected,
            ..NodeStats::default()
        };
        for class in self.classes.values() {
            class.add_stats(&mut stats);
        }
        stats
    }

    fn next_rid(&mut self, now: Round) -> CongosRumorId {
        if self.seq_in_round.0 != now {
            self.seq_in_round = (now, 0);
        }
        let seq = self.seq_in_round.1;
        self.seq_in_round.1 += 1;
        CongosRumorId {
            source: self.me,
            birth: now,
            seq,
        }
    }

    /// Frames a payload with the real/decoy marker when a Section 7
    /// extension is enabled (the marker rides *inside* the secret-shared
    /// bytes, so only a legitimate reassembler can read it).
    fn frame(&self, real: bool, data: &[u8]) -> Vec<u8> {
        if !self.cfg.framing_enabled() {
            return data.to_vec();
        }
        let mut framed = Vec::with_capacity(data.len() + 1);
        framed.push(u8::from(real));
        framed.extend_from_slice(data);
        framed
    }

    /// Unframes a reassembled payload; `None` means "decoy — discard".
    fn unframe(&mut self, data: Vec<u8>) -> Option<Vec<u8>> {
        if !self.cfg.framing_enabled() {
            return Some(data);
        }
        match data.split_first() {
            Some((1, rest)) => Some(rest.to_vec()),
            _ => {
                self.decoys_discarded += 1;
                None
            }
        }
    }

    fn alive_rounds(&self, now: Round) -> u64 {
        match self.alive_since {
            None => u64::MAX,
            Some(t) => now.since(t),
        }
    }

    /// The deadline class for an injected deadline, or `None` for the
    /// direct path.
    fn deadline_class(&self, deadline: u64) -> Option<u64> {
        if self.partitions.is_empty() || self.cfg.degenerate_collusion(self.n) {
            return None;
        }
        let dline = trim_deadline(deadline, self.deadline_cap);
        (dline >= DIRECT_THRESHOLD).then_some(dline)
    }

    /// Fetches (or lazily creates) the class engine for `dline`.
    fn class_engine(&mut self, dline: u64) -> &mut ClassEngine {
        let (me, n) = (self.me, self.n);
        let (partitions, cfg) = (&self.partitions, &self.cfg);
        self.classes
            .entry(dline)
            .or_insert_with(|| ClassEngine::new(me, n, dline, partitions, cfg))
    }

    /// `true` if an incoming message's deadline class is one this
    /// configuration could legitimately produce.
    fn valid_class(&self, dline: u64) -> bool {
        dline.is_power_of_two()
            && dline >= DIRECT_THRESHOLD
            && dline <= trim_deadline(u64::MAX, self.deadline_cap)
    }

    fn save_fragment(&mut self, ctx: &mut Context<'_, Self>, f: Fragment) {
        if f.rid.birth > ctx.round() {
            // No correct process sends a rumor born after this round, and
            // its expiry round would overflow.
            self.rejected += 1;
            return;
        }
        // `f.dline` is its message's class (`class_engine::fits`).
        let horizon = rumor::horizon(f.rid.birth, f.dline, self.deadline_cap);
        if ctx.round() > horizon {
            // Its dedup entry may be pruned: a replay must not deliver it
            // again.
            self.rejected += 1;
            return;
        }
        if !f.dest.contains(self.me) || self.delivered.contains(&f.rid) {
            return;
        }
        // `deliver` drops a rumor's entries by these keys, one per partition.
        debug_assert!(
            usize::from(f.partition) < self.partitions.len(),
            "a received fragment passed `class_engine::fits`"
        );
        let key = (f.rid, f.partition);
        if !self.parts.contains_key(&key) {
            self.parts_expiry.insert(horizon.as_u64(), key);
        }
        let entry = self.parts.entry(key).or_insert_with(|| PartsEntry {
            k: f.k,
            wid: f.wid,
            got: BTreeMap::new(),
        });
        entry.got.insert(f.group, f.bytes);
        if entry.got.len() == entry.k as usize {
            let refs: Vec<&[u8]> = entry.got.values().map(|b| &b[..]).collect();
            if let Some(data) = split::merge(&refs) {
                let wid = entry.wid;
                self.deliver(
                    ctx,
                    horizon,
                    DeliveredRumor {
                        wid,
                        rid: f.rid,
                        data,
                        via: DeliveryPath::Fragments,
                    },
                );
            }
        }
    }

    /// Outputs a rumor once; `horizon` is its [`rumor::horizon`].
    fn deliver(&mut self, ctx: &mut Context<'_, Self>, horizon: Round, mut out: DeliveredRumor) {
        if self.delivered.insert(out.rid) {
            self.delivered_expiry.insert(horizon.as_u64(), out.rid);
            // Reassembly state for this rumor is no longer needed. Every
            // saved fragment is of one of the partitions (`save_fragment`
            // asserts it), so its entries are exactly these keys. (Their
            // expiry-ring keys go stale; draining them later is a no-op.)
            for ell in 0..self.partitions.len() {
                self.parts.remove(&(out.rid, ell as u16));
            }
            // Decoys (unframe → None) are silently discarded.
            if let Some(data) = self.unframe(std::mem::take(&mut out.data)) {
                out.data = data;
                ctx.output(out);
            }
        }
    }

    fn handle_injection(&mut self, ctx: &mut Context<'_, Self>, input: CongosInput) {
        self.injected += 1;
        if self.cfg.hide_destinations {
            // Section 7: expand into n singleton-destination rumors of
            // identical size — real content for destinations, noise for
            // everyone else. Observers cannot tell which is which.
            let dest = IdSet::from_iter(self.n, input.dest.iter().copied());
            for q in ctx.all_processes().collect::<Vec<_>>() {
                let real = dest.contains(q);
                let data = if real {
                    self.frame(true, &input.data)
                } else {
                    let noise: Vec<u8> = (0..input.data.len())
                        .map(|_| rand::Rng::gen(ctx.rng()))
                        .collect();
                    self.frame(false, &noise)
                };
                self.disseminate(
                    ctx,
                    input.wid,
                    data,
                    input.deadline,
                    IdSet::from_iter(self.n, [q]),
                );
            }
        } else {
            let dest = IdSet::from_iter(self.n, input.dest.iter().copied());
            let data = self.frame(true, &input.data);
            self.disseminate(ctx, input.wid, data, input.deadline, dest);
        }
    }

    /// Injects a decoy rumor (cover traffic, Section 7): random singleton
    /// destination, content-free (marker 0).
    fn inject_decoy(&mut self, ctx: &mut Context<'_, Self>, data_len: usize, deadline: u64) {
        self.decoys_injected += 1;
        let target = ProcessId::new(rand::Rng::gen_range(ctx.rng(), 0..self.n));
        let noise: Vec<u8> = (0..data_len).map(|_| rand::Rng::gen(ctx.rng())).collect();
        let data = self.frame(false, &noise);
        self.disseminate(
            ctx,
            u64::MAX,
            data,
            deadline,
            IdSet::from_iter(self.n, [target]),
        );
    }

    /// Core dissemination: deliver locally if entitled, then run the
    /// pipeline or the direct path. `data` is already framed.
    fn disseminate(
        &mut self,
        ctx: &mut Context<'_, Self>,
        wid: u64,
        data: Vec<u8>,
        deadline: u64,
        dest: IdSet,
    ) {
        let now = ctx.round();
        let rid = self.next_rid(now);
        let rumor = Rumor {
            wid,
            data,
            deadline,
            dest,
        };
        if rumor.dest.contains(self.me) {
            self.deliver(
                ctx,
                rumor::horizon(now, rumor.deadline, self.deadline_cap),
                DeliveredRumor {
                    wid: rumor.wid,
                    rid,
                    data: rumor.data.clone(),
                    via: DeliveryPath::Local,
                },
            );
        }
        let mut others = rumor.dest.clone();
        others.remove(self.me);
        if others.is_empty() {
            return; // nothing to disseminate
        }
        match self.deadline_class(rumor.deadline) {
            Some(dline) => {
                self.class_engine(dline).inject(now, ctx.rng(), rid, rumor);
            }
            None => {
                // Direct path: deadline too short for the pipeline (or the
                // degenerate collusion regime) — Section 5's "trivially met
                // by sending rumors directly".
                self.direct += 1;
                let shoot = CongosMsg::Shoot {
                    rumor: Arc::new(rumor),
                    rid,
                    direct: true,
                };
                let tag = shoot.tag();
                ctx.send_each(others.iter(), shoot, tag);
            }
        }
    }

    /// Drops the keys of every rumor whose horizon has passed. Expiry
    /// rings were filed at each rumor's horizon, so draining `expire < now`
    /// removes exactly the keys of rumors whose fragments and shoots are now
    /// rejected on arrival, without walking the live entries.
    fn prune(&mut self, now: Round) {
        let parts = &mut self.parts;
        self.parts_expiry.drain_expired(now.as_u64(), |key| {
            parts.remove(&key);
        });
        let delivered = &mut self.delivered;
        self.delivered_expiry.drain_expired(now.as_u64(), |rid| {
            delivered.remove(&rid);
        });
    }
}

impl Protocol for CongosNode {
    type Msg = CongosMsg;
    type Input = CongosInput;
    type Output = DeliveredRumor;

    fn new(me: ProcessId, n: usize, _seed: u64) -> Self {
        Self::with_config(me, n, CongosConfig::base())
    }

    fn on_start(&mut self, round: Round) {
        self.alive_since = (round != Round::ZERO).then_some(round);
    }

    fn msg_size(msg: &Self::Msg) -> u64 {
        crate::wire::encoded_len(msg)
    }

    fn send(&mut self, ctx: &mut Context<'_, Self>) {
        let now = ctx.round();
        let alive_rounds = self.alive_rounds(now);
        if let Some(cover) = self.cfg.cover_traffic {
            if rand::Rng::gen_bool(ctx.rng(), cover.rate) {
                self.inject_decoy(ctx, cover.data_len, cover.deadline);
            }
        }
        let (rng, out) = ctx.rng_and_out();
        for class in self.classes.values_mut() {
            class.on_send(now, rng, alive_rounds, out);
        }
        self.prune(now);
    }

    fn receive(
        &mut self,
        ctx: &mut Context<'_, Self>,
        inbox: Inbox<'_, Self::Msg>,
        input: Option<Self::Input>,
    ) {
        let now = ctx.round();
        let mut received = std::mem::take(&mut self.received);
        for env in inbox {
            match env.payload {
                CongosMsg::Shoot { rumor, rid, direct }
                    if rid.birth > now
                        || now > rumor::horizon(rid.birth, rumor.deadline, self.deadline_cap)
                        || !direct
                            && !self
                                .valid_class(trim_deadline(rumor.deadline, self.deadline_cap)) =>
                {
                    // Born after this round, or past its horizon, as in
                    // `save_fragment`; or a fallback of a class no correct
                    // process runs, whose horizon would be made up.
                    self.rejected += 1;
                }
                CongosMsg::Shoot { rumor, rid, direct } => {
                    // `deliver` drops a repeat: clone the data only for a first.
                    if rumor.dest.contains(self.me) && !self.delivered.contains(rid) {
                        self.deliver(
                            ctx,
                            rumor::horizon(rid.birth, rumor.deadline, self.deadline_cap),
                            DeliveredRumor {
                                wid: rumor.wid,
                                rid: *rid,
                                data: rumor.data.clone(),
                                via: if *direct {
                                    DeliveryPath::Direct
                                } else {
                                    DeliveryPath::Fallback
                                },
                            },
                        );
                    }
                }
                msg => {
                    let dline = match msg {
                        CongosMsg::Gossip { lane, .. } => match lane {
                            crate::messages::GossipLane::Group { dline, .. } => *dline,
                            crate::messages::GossipLane::All { dline } => *dline,
                        },
                        CongosMsg::ProxyRequest { dline, .. } => *dline,
                        CongosMsg::ProxyAck { dline, .. } => *dline,
                        CongosMsg::Partials { dline, .. } => *dline,
                        CongosMsg::Shoot { .. } => unreachable!(),
                    };
                    if !self.valid_class(dline) {
                        self.rejected += 1;
                        continue;
                    }
                    self.class_engine(dline)
                        .on_receive(now, env.src, msg, &mut received);
                }
            }
        }
        if let Some(input) = input {
            self.handle_injection(ctx, input);
        }
        for class in self.classes.values_mut() {
            class.post_receive(&mut received);
        }
        for f in received.drain(..) {
            self.save_fragment(ctx, f);
        }
        self.received = received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{ConfidentialityAuditor, Violation};
    use congos_sim::message::SendColumns;
    use congos_sim::{Envelope, NodeDriver, RoundTransport};
    use std::io;

    /// A transport whose peers send whatever the test says; it keeps what
    /// the node sends.
    struct Hostile(Vec<Envelope<CongosMsg>>, Vec<CongosMsg>);

    impl RoundTransport<CongosMsg> for Hostile {
        fn send_outbox(
            &mut self,
            _: Round,
            _: ProcessId,
            out: &mut SendColumns<CongosMsg>,
        ) -> io::Result<()> {
            self.1.extend(out.drain().map(|(_, _, msg)| msg));
            Ok(())
        }
        fn end_of_round(&mut self, _: Round, _: ProcessId) -> io::Result<()> {
            Ok(())
        }
        fn recv_until_barrier(
            &mut self,
            _: Round,
            _: ProcessId,
            inbox: &mut Vec<Envelope<CongosMsg>>,
        ) -> io::Result<()> {
            inbox.clear();
            inbox.append(&mut self.0);
            Ok(())
        }
    }

    #[test]
    fn impossible_deadline_class_is_rejected_and_counted() {
        let me = ProcessId::new(0);
        // Not a power of two; below the pipeline threshold; above the cap.
        let frames = [3, 1, 1 << 40]
            .into_iter()
            .map(|dline| Envelope {
                src: ProcessId::new(1),
                dst: me,
                round: Round(0),
                tag: crate::messages::TAG_PROXY,
                payload: CongosMsg::ProxyAck { dline, ell: 0 },
            })
            .collect();
        let mut peers = Hostile(frames, vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, 8, 0);
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        assert_eq!(node.protocol().stats().rejected, 3);
        assert!(
            node.protocol().classes.is_empty(),
            "no class engine was built"
        );
    }

    #[test]
    fn a_rumor_born_in_a_later_round_is_rejected_and_counted() {
        let (me, n) = (ProcessId::new(0), 8);
        let from = |payload: CongosMsg| Envelope {
            src: ProcessId::new(1),
            dst: me,
            round: Round(1),
            tag: payload.tag(),
            payload,
        };
        let mut envelopes = Vec::new();
        // One past the receiving round, and one whose expiry overflows.
        for birth in [2, u64::MAX - 5] {
            let rid = CongosRumorId {
                source: ProcessId::new(1),
                birth: Round(birth),
                seq: 0,
            };
            let dest = IdSet::from_iter(n, [me]);
            envelopes.push(from(CongosMsg::Partials {
                dline: 32,
                ell: 0,
                fragments: vec![Fragment {
                    rid,
                    wid: 0,
                    partition: 0,
                    group: 0,
                    k: 2,
                    bytes: vec![1, 2, 3].into(),
                    dest: dest.clone().into(),
                    dline: 32,
                }],
            }));
            envelopes.push(from(CongosMsg::Shoot {
                rumor: Arc::new(Rumor {
                    wid: 0,
                    data: vec![1, 2, 3],
                    deadline: 32,
                    dest,
                }),
                rid,
                direct: true,
            }));
        }
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        peers.0 = envelopes;
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        assert_eq!(node.protocol().stats().rejected, 4);
        assert!(node.outputs().is_empty(), "nothing was delivered");
        assert!(node.protocol().parts.is_empty() && node.protocol().delivered.is_empty());
    }

    #[test]
    fn a_fragment_no_split_makes_is_rejected_not_merged() {
        let (me, n) = (ProcessId::new(0), 8);
        let partitions = PartitionSet::bits(n).len() as u16;
        let fragment = |seq, partition, group, k, byte| Fragment {
            rid: CongosRumorId {
                source: ProcessId::new(1),
                birth: Round(0),
                seq,
            },
            wid: 0,
            partition,
            group,
            k,
            bytes: vec![byte; 3].into(),
            dest: IdSet::from_iter(n, [me]).into(),
            dline: 32,
        };
        // Each message is a whole split of some rumor by its own count, and
        // each names a split no correct process makes (the configuration
        // splits every partition in two): a group outside the split, a
        // split into three, a partition the configuration does not have.
        let forged = [
            vec![fragment(0, 0, 0, 2, 0), fragment(0, 0, 9, 2, 9)],
            (0..3).map(|g| fragment(1, 0, g, 3, 9 * g)).collect(),
            (0..2)
                .map(|g| fragment(2, partitions, g, 2, 9 * g))
                .collect(),
        ];
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        peers.0 = forged
            .into_iter()
            .map(|fragments| Envelope {
                src: ProcessId::new(1),
                dst: me,
                round: Round(1),
                tag: crate::messages::TAG_GD,
                payload: CongosMsg::Partials {
                    dline: 32,
                    ell: 0,
                    fragments,
                },
            })
            .collect();
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        assert_eq!(node.protocol().stats().rejected, 1 + 3 + 2);
        assert!(node.outputs().is_empty(), "nothing was delivered");
    }

    #[test]
    fn a_delivery_drops_only_its_own_reassembly_state() {
        let (me, n) = (ProcessId::new(0), 8);
        let rid = |seq| CongosRumorId {
            source: ProcessId::new(1),
            birth: Round(0),
            seq,
        };
        let fragment = |seq, partition, group| Fragment {
            rid: rid(seq),
            wid: 0,
            partition,
            group,
            k: 2,
            bytes: vec![seq as u8; 3].into(),
            dest: IdSet::from_iter(n, [me]).into(),
            dline: 32,
        };
        let partials = |round, fragments| Envelope {
            src: ProcessId::new(1),
            dst: me,
            round: Round(round),
            tag: crate::messages::TAG_GD,
            payload: CongosMsg::Partials {
                dline: 32,
                ell: 0,
                fragments,
            },
        };
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        // Rumor 0 is half there in partition 0, rumor 1 in partitions 0 and
        // 1; then partition 1 completes rumor 1.
        let first = vec![fragment(0, 0, 0), fragment(1, 0, 0), fragment(1, 1, 0)];
        peers.0 = vec![partials(1, first)];
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        assert_eq!(node.protocol().parts.len(), 3);
        peers.0 = vec![partials(2, vec![fragment(1, 1, 1)])];
        node.send_phase(&mut peers).expect("send");
        node.compute_phase(&mut peers, None).expect("compute");
        assert!(node.protocol().delivered.contains(&rid(1)));
        let left: Vec<_> = node.protocol().parts.keys().copied().collect();
        assert_eq!(left, [(rid(0), 0)]);
    }

    /// Runs `node` until its next round is `round`, feeding `peers` nothing.
    fn run_until(node: &mut NodeDriver<CongosNode>, peers: &mut Hostile, round: u64) {
        while node.round() < Round(round) {
            node.send_phase(peers).expect("send");
            node.compute_phase(peers, None).expect("compute");
        }
    }

    /// Rumor `seq` of p1, born at round 0 for p0 alone, in class `dline`
    /// (its horizon is round `2·dline`): both fragments of partition 0, and
    /// a fallback `Shoot`.
    fn rumor_of_p1(seq: u32, dline: u64, n: usize) -> (Vec<Fragment>, CongosMsg) {
        let rid = CongosRumorId {
            source: ProcessId::new(1),
            birth: Round(0),
            seq,
        };
        let dest = IdSet::from_iter(n, [ProcessId::new(0)]);
        let fragments = (0..2)
            .map(|group| Fragment {
                rid,
                wid: u64::from(seq),
                partition: 0,
                group,
                k: 2,
                bytes: vec![group; 3].into(),
                dest: dest.clone().into(),
                dline,
            })
            .collect();
        let rumor = Arc::new(Rumor {
            wid: u64::from(seq),
            data: vec![seq as u8],
            deadline: dline,
            dest,
        });
        let shoot = CongosMsg::Shoot {
            rumor,
            rid,
            direct: false,
        };
        (fragments, shoot)
    }

    fn to_p0(round: u64, payload: CongosMsg) -> Envelope<CongosMsg> {
        Envelope {
            src: ProcessId::new(1),
            dst: ProcessId::new(0),
            round: Round(round),
            tag: payload.tag(),
            payload,
        }
    }

    fn partials(dline: u64, fragments: Vec<Fragment>) -> CongosMsg {
        CongosMsg::Partials {
            dline,
            ell: 0,
            fragments,
        }
    }

    #[test]
    fn each_rounds_prune_drops_every_key_of_a_rumor_past_its_horizon() {
        let (me, n) = (ProcessId::new(0), 8);
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        run_until(&mut node, &mut peers, 1);
        // Rumor 0 is half reassembled; rumor 1 is delivered by its
        // fragments, rumor 2 by a `Shoot`. All three have horizon 64.
        let (mut half, _) = rumor_of_p1(0, 32, n);
        half.truncate(1);
        let (whole, _) = rumor_of_p1(1, 32, n);
        let (_, shoot) = rumor_of_p1(2, 32, n);
        peers.0 = vec![
            to_p0(1, partials(32, half)),
            to_p0(1, partials(32, whole)),
            to_p0(1, shoot),
        ];
        run_until(&mut node, &mut peers, 2);
        assert_eq!(node.outputs().len(), 2);
        let kept = |node: &NodeDriver<CongosNode>| {
            let c = node.protocol().census();
            (c.parts, c.delivered, c.retained_rumors)
        };
        assert_eq!(kept(&node), (1, 2, 3));
        // Through the horizon round the keys are kept; the next round's
        // send phase drops them all.
        run_until(&mut node, &mut peers, 65);
        assert_eq!(kept(&node), (1, 2, 3));
        node.send_phase(&mut peers).expect("send");
        assert_eq!(kept(&node), (0, 0, 0));
        let p = node.protocol();
        assert_eq!((p.parts_expiry.len(), p.delivered_expiry.len()), (0, 0));
        assert_eq!(p.stats().rejected, 0);
    }

    #[test]
    fn a_replay_past_the_horizon_is_rejected_not_delivered() {
        let (me, n) = (ProcessId::new(0), 8);
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        run_until(&mut node, &mut peers, 1);
        let (fragments, shoot) = rumor_of_p1(1, 32, n);
        peers.0 = vec![to_p0(1, partials(32, fragments.clone()))];
        run_until(&mut node, &mut peers, 2);
        assert_eq!(node.outputs().len(), 1);
        // At the horizon a replay is a repeat; one round later, after the
        // prune dropped its keys, it is rejected.
        let replay = |round| {
            vec![
                to_p0(round, partials(32, fragments.clone())),
                to_p0(round, shoot.clone()),
            ]
        };
        run_until(&mut node, &mut peers, 64);
        peers.0 = replay(64);
        run_until(&mut node, &mut peers, 65);
        assert_eq!(node.protocol().stats().rejected, 0);
        peers.0 = replay(65);
        run_until(&mut node, &mut peers, 600);
        assert_eq!(node.protocol().stats().rejected, 3);
        peers.0 = replay(600);
        run_until(&mut node, &mut peers, 601);
        assert_eq!(node.protocol().stats().rejected, 6);
        assert_eq!(node.outputs().len(), 1, "delivered once");
        assert!(node.protocol().parts.is_empty() && node.protocol().delivered.is_empty());
    }

    #[test]
    fn a_forged_short_dline_cannot_expire_a_rumor_early() {
        let (me, n) = (ProcessId::new(0), 8);
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        run_until(&mut node, &mut peers, 1);
        // Rumor 1 is of class 256, so its horizon is round 512. Its first
        // fragment arrives honest, its second with a forged `dline` of 32
        // (horizon 64); so does a fallback `Shoot` claiming deadline 8.
        // Accepted, either would file the rumor as delivered until round 64,
        // and round 65's prune would forget it.
        let (fragments, shoot) = rumor_of_p1(1, 256, n);
        let mut forged = fragments[1].clone();
        forged.dline = 32;
        let mut short = shoot.clone();
        if let CongosMsg::Shoot { rumor, .. } = &mut short {
            Arc::make_mut(rumor).deadline = 8;
        }
        peers.0 = vec![
            to_p0(1, partials(256, vec![fragments[0].clone(), forged])),
            to_p0(1, short),
        ];
        run_until(&mut node, &mut peers, 512);
        assert_eq!(node.protocol().stats().rejected, 2);
        assert!(node.outputs().is_empty());
        // The honest fragments, after the forged horizon but within the
        // true horizon, deliver it; the honest `Shoot` then finds
        // it delivered.
        peers.0 = vec![to_p0(512, partials(256, fragments)), to_p0(512, shoot)];
        run_until(&mut node, &mut peers, 513);
        assert_eq!(node.protocol().stats().rejected, 2);
        assert_eq!(node.outputs().len(), 1, "delivered once");
    }

    #[test]
    fn auditor_watches_the_node_path() {
        let (me, n) = (ProcessId::new(0), 4);
        let rid = CongosRumorId {
            source: ProcessId::new(1),
            birth: Round(0),
            seq: 0,
        };
        let shoot = Envelope {
            src: rid.source,
            dst: me,
            round: Round(0),
            tag: crate::messages::TAG_SHOOT,
            payload: CongosMsg::Shoot {
                rumor: Arc::new(Rumor {
                    wid: 0,
                    data: b"secret".to_vec(),
                    deadline: 64,
                    dest: IdSet::from_iter(n, [ProcessId::new(2)]),
                }),
                rid,
                direct: true,
            },
        };
        let mut peers = Hostile(vec![shoot], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        let mut audit = ConfidentialityAuditor::new(n);
        node.send_phase(&mut peers).expect("send");
        node.compute_phase_observed(&mut peers, None, &mut audit)
            .expect("compute");
        assert_eq!(
            audit.report().violations,
            [Violation::WholeRumorLeaked { process: me, rid }]
        );
        assert!(node.outputs().is_empty(), "p0 is no destination");
    }

    #[test]
    fn direct_shoots_share_one_rumor() {
        let (me, n) = (ProcessId::new(0), 8);
        let mut peers = Hostile(vec![], vec![]);
        let mut node = NodeDriver::<CongosNode>::new(me, n, 0);
        node.send_phase(&mut peers).expect("send");
        let input = CongosInput {
            wid: 0,
            data: b"short".to_vec(),
            deadline: 4, // below the pipeline threshold: the direct path
            dest: [3, 5, 6].map(ProcessId::new).to_vec(),
        };
        node.compute_phase(&mut peers, Some(input))
            .expect("compute");
        node.send_phase(&mut peers).expect("send");
        let rumors: Vec<&Arc<Rumor>> = peers
            .1
            .iter()
            .filter_map(|m| match m {
                CongosMsg::Shoot {
                    rumor,
                    direct: true,
                    ..
                } => Some(rumor),
                _ => None,
            })
            .collect();
        assert_eq!(rumors.len(), 3, "one shoot per destination");
        assert!(rumors.iter().all(|r| Arc::ptr_eq(r, rumors[0])));
    }
}
