//! One protocol instance per deadline class.
//!
//! Section 4.2: rumors are trimmed to a power-of-two deadline class no
//! larger than `c·log⁶n`, and the protocol runs one instance per class (the
//! paper's `Θ(log log n · log⁶ n)` parallel instances, instantiated lazily
//! here — a class engine exists at a process only once traffic or an
//! injection of that class appears). Each instance owns, per partition `ℓ`:
//! a filtered `GroupGossip[ℓ]` endpoint for the process's group, a
//! `Proxy[ℓ]` and a `GroupDistribution[ℓ]`; plus one unfiltered `AllGossip`
//! and the coordinator state of the `ConfidentialGossip` service —
//! rumor-cache, the confirmation matrix `hitSetM`, and the deadline
//! fallback.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;

use congos_gossip::{ContinuousGossip, GossipConfig, GossipWire};
use congos_sim::message::SendColumns;
use congos_sim::{BlockClock, IdSet, ProcessId, Round};

use crate::config::CongosConfig;
use crate::messages::{
    CongosMsg, DestRef, FragBytes, Fragment, GossipLane, GossipPayload, TAG_ALL_GOSSIP,
    TAG_GROUP_GOSSIP,
};
use crate::partition::PartitionSet;
use crate::rumor::{CongosRumorId, Rumor};
use crate::services::group_distribution::GdService;
use crate::services::hit_history::HitHistory;
use crate::services::proxy::ProxyService;
use crate::split;

/// Queues `msg` for `dst` under the tag the message implies.
fn send(out: &mut SendColumns<CongosMsg>, dst: ProcessId, msg: CongosMsg) {
    out.push(dst, msg.tag(), msg);
}

/// The emitter a gossip endpoint of `lane` steps into: queues each wire on
/// `out`.
fn gossip_to(
    out: &mut SendColumns<CongosMsg>,
    lane: GossipLane,
) -> impl FnMut(ProcessId, GossipWire<Arc<GossipPayload>>) + '_ {
    move |dst, wire| send(out, dst, CongosMsg::Gossip { lane, wire })
}

struct Lane {
    ell: u16,
    my_group: u8,
    gossip: ContinuousGossip<Arc<GossipPayload>>,
    proxy: ProxyService,
    gd: GdService,
}

struct CachedRumor {
    rumor: Rumor,
    expire: Round,
}

/// Statistics a class engine exposes for experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Rumors confirmed through the pipeline (no fallback needed).
    pub confirmed: u64,
    /// Rumors that hit the deadline fallback ("shoot").
    pub fallbacks: u64,
    /// Received messages dropped as ones no correct process sends.
    pub rejected: u64,
}

pub(crate) struct ClassEngine {
    me: ProcessId,
    n: usize,
    dline: u64,
    clock: BlockClock,
    sqrt_d: u64,
    lanes: Vec<Lane>,
    all_gossip: ContinuousGossip<Arc<GossipPayload>>,
    cache: BTreeMap<CongosRumorId, CachedRumor>,
    /// Confirmation matrix `hitSetM`, ring-buffered by birth epoch.
    hit_matrix: HitHistory,
    stats: ClassStats,
}

impl ClassEngine {
    pub(crate) fn new(
        me: ProcessId,
        n: usize,
        dline: u64,
        partitions: &PartitionSet,
        cfg: &CongosConfig,
    ) -> Self {
        let clock = BlockClock::new(dline);
        let gossip = |endpoint: GossipConfig| {
            let endpoint = endpoint
                .fanout(cfg.gossip_fanout)
                .strategy(cfg.gossip_strategy);
            ContinuousGossip::new(me, n, endpoint)
        };
        let lanes = partitions
            .iter()
            .map(|(ell, p)| {
                let my_group = p.group_of(me);
                let membership = p.group(my_group).clone();
                Lane {
                    ell: ell as u16,
                    my_group,
                    gossip: gossip(GossipConfig::group(membership, TAG_GROUP_GOSSIP)),
                    proxy: ProxyService::new(n, my_group),
                    gd: GdService::new(n, my_group),
                }
            })
            .collect();
        ClassEngine {
            me,
            n,
            dline,
            clock,
            sqrt_d: dline.isqrt(),
            lanes,
            all_gossip: gossip(GossipConfig::all(n, TAG_ALL_GOSSIP)),
            cache: BTreeMap::new(),
            hit_matrix: HitHistory::new(dline),
            stats: ClassStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> ClassStats {
        self.stats
    }

    /// Injects a rumor into this class's pipeline (Figure 8's
    /// `rumor-inject`): for every partition, split independently, gossip the
    /// own-group fragment, hand the others to the Proxy service, and cache
    /// the rumor for confirmation tracking.
    pub(crate) fn inject(
        &mut self,
        now: Round,
        rng: &mut SmallRng,
        rid: CongosRumorId,
        rumor: Rumor,
        partitions: &PartitionSet,
    ) {
        // One destination set shared by all k·p fragments.
        let dest = DestRef::from(&rumor.dest);
        for lane in &mut self.lanes {
            let partition = partitions.partition(lane.ell as usize);
            let k = partition.group_count();
            let frags = split::split(rng, &rumor.data, k);
            for (g, bytes) in frags.into_iter().map(FragBytes::from).enumerate() {
                let fragment = Fragment {
                    rid,
                    wid: rumor.wid,
                    partition: lane.ell,
                    group: g as u8,
                    k: k as u8,
                    bytes,
                    dest: dest.clone(),
                    dline: self.dline,
                };
                if g as u8 == lane.my_group {
                    let group_set = partition.group(lane.my_group).clone();
                    lane.gossip.inject(
                        now,
                        Arc::new(GossipPayload::Fragments(vec![fragment])),
                        self.sqrt_d,
                        group_set,
                    );
                } else {
                    lane.proxy.inject(fragment);
                }
            }
        }
        self.cache.insert(
            rid,
            CachedRumor {
                rumor,
                expire: now + self.dline,
            },
        );
    }

    /// Send phase for this class: block/iteration bookkeeping, service
    /// sends, gossip drains, confirmation checks and the deadline fallback.
    /// Messages are queued on `out`, the process's send buffer.
    pub(crate) fn on_send(
        &mut self,
        now: Round,
        rng: &mut SmallRng,
        cfg: &CongosConfig,
        partitions: &PartitionSet,
        alive_rounds: u64,
        out: &mut SendColumns<CongosMsg>,
    ) {
        let dline = self.dline;
        let off_block = self.clock.offset_in_block(now);
        let it_off = self.clock.offset_in_iteration(now);
        let last_iter_round = self.clock.iter_len() - 1;

        for lane in &mut self.lanes {
            let partition = partitions.partition(lane.ell as usize);
            let group_len = partition.group(lane.my_group).len();
            if off_block == 0 {
                lane.proxy
                    .on_block_start(now, alive_rounds >= self.clock.block_len(), group_len);
            }
            if off_block == 1 {
                lane.gd
                    .on_block_start(now, alive_rounds >= 2 * dline / 3, group_len);
            }
            match it_off {
                Some(0) => {
                    for (dst, fragments) in lane.proxy.on_iteration_start(
                        rng,
                        self.n,
                        dline,
                        partition,
                        cfg.service_fanout,
                    ) {
                        send(
                            out,
                            dst,
                            CongosMsg::ProxyRequest {
                                dline,
                                ell: lane.ell,
                                fragments,
                            },
                        );
                    }
                }
                Some(1) => {
                    for (dst, fragments) in
                        lane.gd
                            .on_send_round(rng, self.n, dline, partition, cfg.service_fanout)
                    {
                        send(
                            out,
                            dst,
                            CongosMsg::Partials {
                                dline,
                                ell: lane.ell,
                                fragments,
                            },
                        );
                    }
                    let (buffer, failed) = lane.proxy.gossip_payloads();
                    let group_set = partition.group(lane.my_group).clone();
                    if !buffer.is_empty() {
                        lane.gossip.inject(
                            now,
                            Arc::new(GossipPayload::Fragments(buffer)),
                            self.sqrt_d,
                            group_set.clone(),
                        );
                    }
                    if lane.proxy.beacon() || !failed.is_empty() {
                        let payload = Arc::new(GossipPayload::ProxyMeta {
                            failed_proxies: failed,
                        });
                        if cfg.lean_metadata {
                            // One epidemic round: every process re-beacons
                            // each iteration anyway, so a longer forwarding
                            // window only multiplies the active-set size
                            // (Θ(|group|) metadata rumors per instance).
                            lane.gossip.inject_best_effort(now, payload, 1, group_set);
                        } else {
                            lane.gossip.inject(now, payload, self.sqrt_d, group_set);
                        }
                    }
                }
                Some(2) => {
                    if let Some(hits) = lane.gd.gossip_share() {
                        let group_set = partition.group(lane.my_group).clone();
                        let payload = Arc::new(GossipPayload::GdShare { hits });
                        if cfg.lean_metadata {
                            // One epidemic round, as for the beacons: shares
                            // are re-published every iteration, and slower
                            // aggregation costs at most a confirmation.
                            lane.gossip.inject_best_effort(now, payload, 1, group_set);
                        } else {
                            lane.gossip.inject(now, payload, self.sqrt_d, group_set);
                        }
                    }
                }
                Some(o) if o == last_iter_round => {
                    for dst in lane.proxy.acks_due() {
                        send(
                            out,
                            dst,
                            CongosMsg::ProxyAck {
                                dline,
                                ell: lane.ell,
                            },
                        );
                    }
                }
                _ => {}
            }
            if self.clock.is_block_end(now) {
                // Under lean metadata, one designated member per group (the
                // lowest id) publishes the sanitized hit-set; the other
                // copies are fault-tolerance redundancy, and each stays
                // active for a whole block in every process's forwarding
                // set. A missed publication costs a confirmation, never
                // delivery (the source's deadline fallback covers it).
                let publisher = !cfg.lean_metadata
                    || partition.group(lane.my_group).iter().next() == Some(self.me);
                if let Some(hits) = lane.gd.end_of_block().filter(|_| publisher) {
                    // The paper gossips the sanitized hit-set to [n]; only
                    // the rumor *sources* ever consult it, so the guaranteed
                    // destination set is the sources — everyone else still
                    // sees it as a relay, but nobody pays per-member
                    // acknowledgment/fallback cost for n-wide delivery
                    // (which would add an n² per-round term the paper's
                    // bound does not have).
                    let sources =
                        IdSet::from_iter(self.n, hits.iter().map(|(_, rid)| rid.source));
                    self.all_gossip.inject(
                        now,
                        Arc::new(GossipPayload::Distribution {
                            partition: lane.ell,
                            group: lane.my_group,
                            hits,
                        }),
                        self.clock.block_len().saturating_sub(1).max(1),
                        sources,
                    );
                }
            }
            let group_lane = GossipLane::Group {
                dline,
                ell: lane.ell,
            };
            lane.gossip.step_with(now, rng, gossip_to(out, group_lane));
        }
        self.all_gossip
            .step_with(now, rng, gossip_to(out, GossipLane::All { dline }));

        self.check_confirmations(partitions);
        self.fire_fallbacks(now, out);
        if self.clock.is_block_end(now) {
            self.prune(now);
        }
    }

    /// Routes an incoming protocol message, borrowed from the inbox, into
    /// the right sub-service; each path clones only what it keeps.
    /// `Partials` fragments are appended to `saved`, the node's reassembly
    /// queue. A message no correct process sends — a partition index this
    /// configuration does not have, or a proxy request carrying a fragment
    /// of a foreign group — is dropped and counted in
    /// [`ClassStats::rejected`], in every build profile.
    pub(crate) fn on_receive(
        &mut self,
        now: Round,
        src: ProcessId,
        msg: &CongosMsg,
        partitions: &PartitionSet,
        saved: &mut Vec<Fragment>,
    ) {
        match msg {
            CongosMsg::Gossip { lane, wire } => match lane {
                GossipLane::Group { ell, .. } => match self.lanes.get_mut(*ell as usize) {
                    Some(l) => l.gossip.on_receive(now, src, wire),
                    None => self.stats.rejected += 1,
                },
                GossipLane::All { .. } => self.all_gossip.on_receive(now, src, wire),
            },
            CongosMsg::ProxyRequest { ell, fragments, .. } => {
                match self.lanes.get_mut(*ell as usize) {
                    // [PROXY:CONFIDENTIAL]: only fragments of our own group
                    // may be proxied to us — an accepted foreign one would be
                    // re-gossiped inside a group that must never hold it.
                    Some(l) if fragments.iter().all(|f| f.group == l.my_group) => {
                        l.proxy.on_request(src, fragments);
                    }
                    _ => self.stats.rejected += 1,
                }
            }
            CongosMsg::ProxyAck { ell, .. } => match self.lanes.get_mut(*ell as usize) {
                Some(l) => l.proxy.on_ack(src, partitions.partition(*ell as usize)),
                None => self.stats.rejected += 1,
            },
            CongosMsg::Partials { fragments, .. } => saved.extend_from_slice(fragments),
            CongosMsg::Shoot { .. } => unreachable!("Shoot handled at node level"),
        }
    }

    /// Compute-phase drain: dispatch gossip deliveries into the services and
    /// append the fragments this process received through its groups to
    /// `saved` (for reassembly if it is a destination).
    pub(crate) fn post_receive(&mut self, saved: &mut Vec<Fragment>) {
        for lane in &mut self.lanes {
            for rumor in lane.gossip.take_delivered() {
                let origin = rumor.id.origin;
                match rumor.payload.as_ref() {
                    GossipPayload::Fragments(frags) => {
                        for f in frags {
                            // A lane carries its own group's fragments of
                            // its own partition and no others.
                            if f.partition != lane.ell || f.group != lane.my_group {
                                self.stats.rejected += 1;
                                continue;
                            }
                            lane.gd.inject(f.clone());
                            saved.push(f.clone());
                        }
                    }
                    GossipPayload::ProxyMeta { failed_proxies } => {
                        lane.proxy.on_meta(origin, failed_proxies);
                    }
                    GossipPayload::GdShare { hits } => {
                        lane.gd.on_share(origin, hits);
                    }
                    // Distribution rides AllGossip only.
                    GossipPayload::Distribution { .. } => self.stats.rejected += 1,
                }
            }
        }
        for rumor in self.all_gossip.take_delivered() {
            if let GossipPayload::Distribution {
                partition,
                group,
                hits,
            } = rumor.payload.as_ref()
            {
                self.hit_matrix
                    .extend(*partition, *group, hits.iter().copied());
            }
        }
    }

    /// Figure 8's confirmation rule, generalized to `k` groups: a rumor is
    /// confirmed once, for some partition `ℓ`, **every** group's hit-set
    /// covers **every** destination — i.e. each destination was explicitly
    /// sent each of the `k` fragments. (Lemma 4's soundness direction: a
    /// hit-set entry exists only if the fragment was actually sent.)
    fn check_confirmations(&mut self, partitions: &PartitionSet) {
        let confirmed: Vec<CongosRumorId> = self
            .cache
            .iter()
            .filter(|(rid, c)| self.is_confirmed(**rid, &c.rumor, partitions))
            .map(|(rid, _)| *rid)
            .collect();
        for rid in confirmed {
            self.cache.remove(&rid);
            self.stats.confirmed += 1;
        }
    }

    fn is_confirmed(&self, rid: CongosRumorId, rumor: &Rumor, partitions: &PartitionSet) -> bool {
        partitions.iter().any(|(ell, p)| {
            (0..p.group_count() as u8).all(|g| {
                rumor
                    .dest
                    .iter()
                    .all(|q| self.hit_matrix.contains(ell as u16, g, q, rid))
            })
        })
    }

    /// The last two bullets of Figure 2: if a rumor's (trimmed) deadline is
    /// expiring and no confirmation arrived, send it whole, directly, to
    /// every destination. Every destination's copy shares one `Arc`.
    fn fire_fallbacks(&mut self, now: Round, out: &mut SendColumns<CongosMsg>) {
        let expired: Vec<CongosRumorId> = self
            .cache
            .iter()
            .filter(|(_, c)| c.expire == now)
            .map(|(rid, _)| *rid)
            .collect();
        for rid in expired {
            let rumor = Arc::new(self.cache.remove(&rid).expect("present").rumor);
            self.stats.fallbacks += 1;
            for q in rumor.dest.iter() {
                if q != self.me {
                    send(
                        out,
                        q,
                        CongosMsg::Shoot {
                            rumor: Arc::clone(&rumor),
                            rid,
                            direct: false,
                        },
                    );
                }
            }
        }
        // Anything past its expiry (possible only if this process was
        // crashed across the boundary — then it lost this state anyway) is
        // dropped defensively.
        self.cache.retain(|_, c| c.expire > now);
    }

    /// Drops confirmation entries for long-expired rumors: whole birth-epoch
    /// buckets whose every possible entry is past `birth + 2·dline`. O(evicted),
    /// not O(live) — and never an entry a cached rumor could still query.
    fn prune(&mut self, now: Round) {
        self.hit_matrix.evict_expired(now);
    }

    /// Fallback count plus confirmation count of the substrate endpoints —
    /// used by robustness experiments.
    pub(crate) fn gossip_fallbacks(&self) -> u64 {
        self.lanes.iter().map(|l| l.gossip.fallbacks()).sum::<u64>()
            + self.all_gossip.fallbacks()
    }

    /// Number of own rumors still awaiting confirmation (diagnostics).
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CongosConfig;
    use crate::messages::TAG_SHOOT;
    use congos_sim::{IdSet, Tag};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const DLINE: u64 = 64; // block 16, iteration 10

    fn setup(me: usize, n: usize) -> (ClassEngine, PartitionSet, CongosConfig, SmallRng) {
        let partitions = PartitionSet::bits(n);
        let cfg = CongosConfig::base();
        let engine = ClassEngine::new(ProcessId::new(me), n, DLINE, &partitions, &cfg);
        (engine, partitions, cfg, SmallRng::seed_from_u64(7))
    }

    /// One send phase, returning what it queued as `(dst, tag, msg)`.
    fn sends_at(
        engine: &mut ClassEngine,
        t: u64,
        rng: &mut SmallRng,
        cfg: &CongosConfig,
        partitions: &PartitionSet,
    ) -> Vec<(ProcessId, Tag, CongosMsg)> {
        let mut out = SendColumns::default();
        engine.on_send(Round(t), rng, cfg, partitions, u64::MAX, &mut out);
        let sends = out.drain().collect();
        sends
    }

    fn rumor(n: usize, dest: &[usize]) -> (CongosRumorId, Rumor) {
        (
            CongosRumorId {
                source: ProcessId::new(0),
                birth: Round(0),
                seq: 0,
            },
            Rumor {
                wid: 1,
                data: vec![0xAA; 8],
                deadline: DLINE,
                dest: IdSet::from_iter(n, dest.iter().map(|i| ProcessId::new(*i))),
            },
        )
    }

    #[test]
    fn proxy_requests_start_at_the_next_block_boundary() {
        let n = 8;
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        // Mirror the engine's phase order: round 0's send phase runs first,
        // the injection lands in the compute phase after it.
        sends_at(&mut engine, 0, &mut rng, &cfg, &partitions);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);

        // Rest of block 0: fragments spread via gossip; the Proxy service
        // has only collected them into `waiting`.
        for t in 1..16u64 {
            let sends = sends_at(&mut engine, t, &mut rng, &cfg, &partitions);
            assert!(
                !sends
                    .iter()
                    .any(|(_, _, m)| matches!(m, CongosMsg::ProxyRequest { .. })),
                "premature proxy request at round {t}"
            );
        }
        // Round 16 is block 1's first round: proxy requests go out, and each
        // targets the fragment's own group ([PROXY:CONFIDENTIAL]).
        let sends = sends_at(&mut engine, 16, &mut rng, &cfg, &partitions);
        let requests: Vec<_> = sends
            .iter()
            .filter_map(|(dst, _, m)| match m {
                CongosMsg::ProxyRequest { ell, fragments, .. } => Some((dst, ell, fragments)),
                _ => None,
            })
            .collect();
        assert!(!requests.is_empty(), "proxy must fire at the block boundary");
        for (dst, ell, fragments) in requests {
            let p = partitions.partition(*ell as usize);
            for f in fragments {
                assert_eq!(p.group_of(*dst), f.group, "fragment sent to its group");
            }
        }
    }

    #[test]
    fn unconfirmed_rumor_shoots_exactly_at_expiry() {
        let n = 8;
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3, 5]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);
        assert_eq!(engine.cache_len(), 1);

        // Without any Distribution feedback (nothing is routed back into
        // this engine), confirmation can never happen; the fallback must
        // fire exactly at round 64 and clear the cache.
        for t in 0..DLINE {
            let sends = sends_at(&mut engine, t, &mut rng, &cfg, &partitions);
            assert!(
                !sends.iter().any(|(_, _, m)| matches!(m, CongosMsg::Shoot { .. })),
                "premature shoot at round {t}"
            );
        }
        let sends = sends_at(&mut engine, DLINE, &mut rng, &cfg, &partitions);
        let shoots: Vec<_> = sends
            .iter()
            .filter(|(_, _, m)| matches!(m, CongosMsg::Shoot { .. }))
            .collect();
        assert_eq!(shoots.len(), 2, "one shoot per destination");
        let mut shared: Option<&Arc<Rumor>> = None;
        for (dst, tag, m) in &sends {
            if let CongosMsg::Shoot { rumor, direct, .. } = m {
                assert!(rumor.dest.contains(*dst), "shoot only to destinations");
                assert!(!direct);
                assert_eq!(*tag, TAG_SHOOT);
                let first = shared.get_or_insert(rumor);
                assert!(
                    Arc::ptr_eq(first, rumor),
                    "every destination's shoot shares one rumor"
                );
            }
        }
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.stats().fallbacks, 1);
    }

    #[test]
    fn confirmation_through_the_hit_matrix_suppresses_the_fallback() {
        let n = 8;
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);

        // Hand-feed Distribution metadata claiming p3 got every group's
        // fragment of partition 0.
        for g in 0..2u8 {
            engine.hit_matrix.extend(0, g, [(ProcessId::new(3), rid)]);
        }
        // Run to expiry: the confirmation check clears the cache before the
        // fallback would fire.
        let mut shoots = 0;
        for t in 0..=DLINE {
            let sends = sends_at(&mut engine, t, &mut rng, &cfg, &partitions);
            shoots += sends
                .iter()
                .filter(|(_, _, m)| matches!(m, CongosMsg::Shoot { .. }))
                .count();
        }
        assert_eq!(shoots, 0);
        assert_eq!(engine.stats().confirmed, 1);
        assert_eq!(engine.stats().fallbacks, 0);
    }

    #[test]
    fn partial_hit_matrix_does_not_confirm() {
        let n = 8;
        let (mut engine, partitions, _cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);
        // Only group 0 of partition 0 reported the hit: unsound to confirm.
        engine.hit_matrix.extend(0, 0, [(ProcessId::new(3), rid)]);
        engine.check_confirmations(&partitions);
        assert_eq!(engine.stats().confirmed, 0);
        assert_eq!(engine.cache_len(), 1);
    }

    #[test]
    fn own_group_fragments_spread_from_round_one() {
        let n = 8;
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);
        let sends = sends_at(&mut engine, 0, &mut rng, &cfg, &partitions);
        // Group gossip pushes carry the own-group fragments immediately, and
        // the filter confines them to the sender's groups.
        let mut pushes = 0;
        for (dst, _, m) in &sends {
            if let CongosMsg::Gossip {
                lane: GossipLane::Group { ell, .. },
                ..
            } = m
            {
                pushes += 1;
                let p = partitions.partition(*ell as usize);
                assert_eq!(
                    p.group_of(*dst),
                    p.group_of(ProcessId::new(0)),
                    "group gossip must stay in the sender's group"
                );
            }
        }
        assert!(pushes > 0, "fragments must start spreading at once");
    }

    fn fragment(n: usize, partition: u16, group: u8) -> Fragment {
        Fragment {
            rid: rumor(n, &[0]).0,
            wid: 1,
            partition,
            group,
            k: 2,
            bytes: vec![0x55; 8].into(),
            dest: IdSet::from_iter(n, [ProcessId::new(0)]).into(),
            dline: DLINE,
        }
    }

    /// Whether any group-gossip push in the rest of block 0 carries fragments.
    fn regossips_fragments(
        engine: &mut ClassEngine,
        rng: &mut SmallRng,
        cfg: &CongosConfig,
        partitions: &PartitionSet,
    ) -> bool {
        (1..16).any(|t| {
            sends_at(engine, t, rng, cfg, partitions)
                .iter()
                .any(|(_, _, m)| {
                    matches!(m, CongosMsg::Gossip { wire, .. } if matches!(
                        wire,
                        congos_gossip::GossipWire::Push(rumors) if rumors
                            .iter()
                            .any(|r| matches!(*r.payload, GossipPayload::Fragments(_)))
                    ))
                })
        })
    }

    #[test]
    fn unknown_partition_index_is_rejected_and_counted() {
        let n = 8;
        let (mut engine, partitions, ..) = setup(0, n);
        let ell = partitions.len() as u16;
        let from = ProcessId::new(2);
        for msg in [
            CongosMsg::ProxyAck { dline: DLINE, ell },
            CongosMsg::ProxyRequest {
                dline: DLINE,
                ell,
                fragments: vec![fragment(n, 0, 0)],
            },
            CongosMsg::Gossip {
                lane: GossipLane::Group { dline: DLINE, ell },
                wire: congos_gossip::GossipWire::Ack(vec![]),
            },
        ] {
            let mut saved = Vec::new();
            engine.on_receive(Round(0), from, &msg, &partitions, &mut saved);
            assert!(saved.is_empty());
        }
        assert_eq!(engine.stats().rejected, 3);
    }

    #[test]
    fn proxy_request_with_a_foreign_fragment_is_rejected_not_regossiped() {
        // [PROXY:CONFIDENTIAL] on the receiving side. p0 is in group 0 of
        // partition 0; a request is taken only if all of it is group 0's.
        let n = 8;
        let request = |fragments| CongosMsg::ProxyRequest {
            dline: DLINE,
            ell: 0,
            fragments,
        };
        let from = ProcessId::new(1);

        // Requests arrive in the compute phase of an iteration's first round.
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        sends_at(&mut engine, 0, &mut rng, &cfg, &partitions);
        let own = vec![fragment(n, 0, 0)];
        engine.on_receive(Round(0), from, &request(own), &partitions, &mut Vec::new());
        assert_eq!(engine.stats().rejected, 0);
        let spread = regossips_fragments(&mut engine, &mut rng, &cfg, &partitions);
        assert!(spread, "a request for the own group is taken up");

        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        sends_at(&mut engine, 0, &mut rng, &cfg, &partitions);
        let mixed = vec![fragment(n, 0, 0), fragment(n, 0, 1)];
        engine.on_receive(
            Round(0),
            from,
            &request(mixed),
            &partitions,
            &mut Vec::new(),
        );
        assert_eq!(engine.stats().rejected, 1);
        let spread = regossips_fragments(&mut engine, &mut rng, &cfg, &partitions);
        assert!(!spread, "nothing of a rejected request is re-gossiped");
    }

    #[test]
    fn payloads_on_the_wrong_gossip_lane_are_rejected() {
        let n = 8;
        let (mut engine, partitions, ..) = setup(0, n);
        // p2 shares p0's group in partition 0, so the lane's filter admits it.
        let from = ProcessId::new(2);
        let push = |seq, payload| CongosMsg::Gossip {
            lane: GossipLane::Group {
                dline: DLINE,
                ell: 0,
            },
            wire: congos_gossip::GossipWire::Push(Arc::new(vec![congos_gossip::GossipRumor {
                id: congos_gossip::RumorId {
                    origin: from,
                    birth: Round(0),
                    seq,
                },
                payload: Arc::new(payload),
                duration: 8,
                deadline: Round(8),
                dest: Arc::new(IdSet::from_iter(n, [ProcessId::new(0)])),
                best_effort: true,
            }])),
        };
        // Distribution rides AllGossip only; a group lane carries only its
        // own group's fragments of its own partition.
        let distribution = GossipPayload::Distribution {
            partition: 0,
            group: 0,
            hits: vec![],
        };
        let fragments = GossipPayload::Fragments(vec![
            fragment(n, 0, 1),
            fragment(n, 1, 0),
            fragment(n, 0, 0),
        ]);
        let mut saved = Vec::new();
        for msg in [push(0, distribution), push(1, fragments)] {
            engine.on_receive(Round(0), from, &msg, &partitions, &mut saved);
        }
        assert!(saved.is_empty(), "pushes deliver at post_receive");
        engine.post_receive(&mut saved);
        assert_eq!(saved, vec![fragment(n, 0, 0)]);
        assert_eq!(engine.stats().rejected, 3);
    }
}
