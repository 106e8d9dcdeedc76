//! The CONGOS process: the full confidential-gossip protocol as a
//! [`congos_sim::Protocol`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use congos_sim::clock::trim_deadline;
use congos_sim::{Context, IdSet, Inbox, ProcessId, Protocol, Round};

use crate::config::{CongosConfig, PartitionScheme};
use crate::messages::{CongosMsg, Fragment};
use crate::partition::PartitionSet;
use crate::rumor::{CongosInput, CongosRumorId, DeliveredRumor, DeliveryPath, Rumor};
use crate::services::class_engine::{ClassEngine, ClassStats};
use crate::services::hit_history::ExpiryRing;
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
    /// group, a rumor id born after the current round). Always 0 in the
    /// simulator; over sockets it counts corrupt or hostile frames that
    /// still decoded.
    pub rejected: u64,
}

struct PartsEntry {
    k: u8,
    wid: u64,
    /// Fragment bytes by group, sharing the received fragments' allocations.
    got: BTreeMap<u8, crate::messages::FragBytes>,
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
    partitions: PartitionSet,
    /// `None` = alive since the beginning of the execution (treated as
    /// "alive forever", matching the paper's long-running system); `Some(t)`
    /// = restarted at `t`.
    alive_since: Option<Round>,
    classes: BTreeMap<u64, ClassEngine>,
    /// Saved fragments for reassembly: `(rumor, partition) → group → bytes`.
    parts: HashMap<(CongosRumorId, u16), PartsEntry>,
    delivered: HashSet<CongosRumorId>,
    /// Expiry indexes over `parts` / `delivered`: pruning walks only expired
    /// ring buckets instead of scanning the whole map every 512 rounds.
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
        let mut partitions = match cfg.scheme {
            PartitionScheme::Bits => PartitionSet::bits(n),
            PartitionScheme::Random { c, seed } => {
                if cfg.degenerate_collusion(n) {
                    // τ ≥ n/log²n: the algorithm abandons the pipeline and
                    // sends everything directly (Section 6.2).
                    PartitionSet::bits(0)
                } else {
                    PartitionSet::random(n, cfg.tau, c, seed)
                }
            }
        };
        if let Some(cap) = cfg.max_partitions {
            partitions.truncate(cap);
        }
        CongosNode {
            me,
            n,
            cfg,
            partitions,
            alive_since: None,
            classes: BTreeMap::new(),
            parts: HashMap::new(),
            delivered: HashSet::new(),
            parts_expiry: ExpiryRing::new(512),
            delivered_expiry: ExpiryRing::new(512),
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

    /// The agreed partition set.
    pub fn partitions(&self) -> &PartitionSet {
        &self.partitions
    }

    /// Rumors this node injected that still await confirmation.
    pub fn pending_confirmations(&self) -> usize {
        self.classes.values().map(|c| c.cache_len()).sum()
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> NodeStats {
        let class: ClassStats = self.classes.values().fold(ClassStats::default(), |a, c| {
            let s = c.stats();
            ClassStats {
                confirmed: a.confirmed + s.confirmed,
                fallbacks: a.fallbacks + s.fallbacks,
                rejected: a.rejected + s.rejected,
            }
        });
        NodeStats {
            injected: self.injected,
            confirmed: class.confirmed,
            fallbacks: class.fallbacks,
            direct: self.direct,
            gossip_fallbacks: self.classes.values().map(|c| c.gossip_fallbacks()).sum(),
            decoys_injected: self.decoys_injected,
            decoys_discarded: self.decoys_discarded,
            rejected: self.rejected + class.rejected,
        }
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
        let dline = trim_deadline(deadline, self.cfg.deadline_cap(self.n));
        (dline >= self.cfg.direct_threshold).then_some(dline)
    }

    /// Fetches (or lazily creates) the class engine for `dline`, returning
    /// it together with the partition set — split borrows so callers can use
    /// both mutably/shared at once.
    fn class_engine<'a>(
        classes: &'a mut BTreeMap<u64, ClassEngine>,
        partitions: &'a PartitionSet,
        cfg: &CongosConfig,
        me: ProcessId,
        n: usize,
        dline: u64,
    ) -> &'a mut ClassEngine {
        classes
            .entry(dline)
            .or_insert_with(|| ClassEngine::new(me, n, dline, partitions, cfg))
    }

    /// `true` if an incoming message's deadline class is one this
    /// configuration could legitimately produce.
    fn valid_class(&self, dline: u64) -> bool {
        dline.is_power_of_two()
            && dline >= self.cfg.direct_threshold
            && dline <= trim_deadline(u64::MAX, self.cfg.deadline_cap(self.n))
    }

    fn save_fragment(&mut self, ctx: &mut Context<'_, Self>, f: Fragment) {
        if f.rid.birth > ctx.round() {
            // No correct process sends a rumor born after this round, and
            // its expiry round would overflow.
            self.rejected += 1;
            return;
        }
        if !f.dest.contains(self.me) || self.delivered.contains(&f.rid) {
            return;
        }
        let key = (f.rid, f.partition);
        if !self.parts.contains_key(&key) {
            let horizon = 2 * self.cfg.deadline_cap(self.n);
            self.parts_expiry.insert((f.rid.birth + horizon).as_u64(), key);
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

    fn deliver(&mut self, ctx: &mut Context<'_, Self>, mut out: DeliveredRumor) {
        if self.delivered.insert(out.rid) {
            let horizon = 2 * self.cfg.deadline_cap(self.n);
            self.delivered_expiry
                .insert((out.rid.birth + horizon).as_u64(), out.rid);
            // Reassembly state for this rumor is no longer needed. (Its
            // expiry-ring keys go stale; draining them later is a no-op.)
            self.parts.retain(|(rid, _), _| *rid != out.rid);
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
                    let noise: Vec<u8> =
                        (0..input.data.len()).map(|_| rand::Rng::gen(ctx.rng())).collect();
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
                let class = Self::class_engine(
                    &mut self.classes,
                    &self.partitions,
                    &self.cfg,
                    self.me,
                    self.n,
                    dline,
                );
                class.inject(now, ctx.rng(), rid, rumor, &self.partitions);
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
                for q in others.iter() {
                    ctx.send(q, shoot.clone(), shoot.tag());
                }
            }
        }
    }

    fn prune(&mut self, now: Round) {
        // Expiry rings were filed with `birth + 2·deadline_cap`, so draining
        // `expire < now` removes exactly the keys the old full-scan
        // `retain(birth + horizon >= now)` removed — without walking the
        // live entries.
        for key in self.parts_expiry.drain_expired(now.as_u64()) {
            self.parts.remove(&key);
        }
        for rid in self.delivered_expiry.drain_expired(now.as_u64()) {
            self.delivered.remove(&rid);
        }
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
            class.on_send(now, rng, &self.cfg, &self.partitions, alive_rounds, out);
        }
        if now.as_u64() % 512 == 511 {
            self.prune(now);
        }
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
                CongosMsg::Shoot { rid, .. } if rid.birth > now => {
                    // Born after this round, as in `save_fragment`.
                    self.rejected += 1;
                }
                CongosMsg::Shoot { rumor, rid, direct } => {
                    // `deliver` drops a repeat: clone the data only for a first.
                    if rumor.dest.contains(self.me) && !self.delivered.contains(rid) {
                        self.deliver(
                            ctx,
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
                    let class = Self::class_engine(
                        &mut self.classes,
                        &self.partitions,
                        &self.cfg,
                        self.me,
                        self.n,
                        dline,
                    );
                    class.on_receive(now, env.src, msg, &self.partitions, &mut received);
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
                    k: 1,
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
