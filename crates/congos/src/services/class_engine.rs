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

use congos_gossip::{ContinuousGossip, GossipConfig};
use congos_sim::{BlockClock, IdSet, ProcessId, Round, Tag};

use crate::config::CongosConfig;
use crate::messages::{
    CongosMsg, Fragment, GossipLane, GossipPayload, TAG_ALL_GOSSIP, TAG_GD, TAG_GROUP_GOSSIP,
    TAG_PROXY, TAG_SHOOT,
};
use crate::partition::PartitionSet;
use crate::rumor::{CongosRumorId, Rumor};
use crate::services::group_distribution::GdService;
use crate::services::hit_history::HitHistory;
use crate::services::proxy::ProxyService;
use crate::split;

/// Outgoing messages produced by a class engine in one send phase.
pub(crate) type Sends = Vec<(ProcessId, CongosMsg, Tag)>;

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
    pub(crate) fn new(me: ProcessId, n: usize, dline: u64, partitions: &PartitionSet) -> Self {
        let clock = BlockClock::new(dline);
        let lanes = partitions
            .iter()
            .map(|(ell, p)| {
                let my_group = p.group_of(me);
                let membership = p.group(my_group).clone();
                Lane {
                    ell: ell as u16,
                    my_group,
                    gossip: ContinuousGossip::new(
                        me,
                        n,
                        GossipConfig::group(membership, TAG_GROUP_GOSSIP),
                    ),
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
            all_gossip: ContinuousGossip::new(me, n, GossipConfig::all(n, TAG_ALL_GOSSIP)),
            cache: BTreeMap::new(),
            hit_matrix: HitHistory::new(dline),
            stats: ClassStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> ClassStats {
        self.stats
    }

    /// Applies gossip fanout configuration to the engine's endpoints.
    pub(crate) fn configure_gossip(&mut self, cfg: &CongosConfig) {
        // Endpoints are created with defaults; rebuild with configured
        // fanout. (Called once right after `new`.)
        for lane in &mut self.lanes {
            let membership = lane.gossip.membership().clone();
            lane.gossip = ContinuousGossip::new(
                self.me,
                self.n,
                GossipConfig::group(membership, TAG_GROUP_GOSSIP)
                    .fanout(cfg.gossip_fanout)
                    .strategy(cfg.gossip_strategy),
            );
        }
        self.all_gossip = ContinuousGossip::new(
            self.me,
            self.n,
            GossipConfig::all(self.n, TAG_ALL_GOSSIP)
                .fanout(cfg.gossip_fanout)
                .strategy(cfg.gossip_strategy),
        );
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
        // One interned destination set shared by all k·p fragments.
        let store = crate::fragstore::FragStore::global();
        let dest = store.intern_dest(&rumor.dest);
        for lane in &mut self.lanes {
            let partition = partitions.partition(lane.ell as usize);
            let k = partition.group_count();
            let frags = split::split_interned(rng, &rumor.data, k, store);
            for (g, bytes) in frags.into_iter().enumerate() {
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
    pub(crate) fn on_send(
        &mut self,
        now: Round,
        rng: &mut SmallRng,
        cfg: &CongosConfig,
        partitions: &PartitionSet,
        alive_rounds: u64,
    ) -> Sends {
        let mut out: Sends = Vec::new();
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
                        out.push((
                            dst,
                            CongosMsg::ProxyRequest {
                                dline,
                                ell: lane.ell,
                                fragments,
                            },
                            TAG_PROXY,
                        ));
                    }
                }
                Some(1) => {
                    for (dst, fragments) in
                        lane.gd
                            .on_send_round(rng, self.n, dline, partition, cfg.service_fanout)
                    {
                        out.push((
                            dst,
                            CongosMsg::Partials {
                                dline,
                                ell: lane.ell,
                                fragments,
                            },
                            TAG_GD,
                        ));
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
                        out.push((
                            dst,
                            CongosMsg::ProxyAck {
                                dline,
                                ell: lane.ell,
                            },
                            TAG_PROXY,
                        ));
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
            for (dst, wire) in lane.gossip.step(now, rng) {
                out.push((
                    dst,
                    CongosMsg::Gossip {
                        lane: GossipLane::Group {
                            dline,
                            ell: lane.ell,
                        },
                        wire: Box::new(wire),
                    },
                    TAG_GROUP_GOSSIP,
                ));
            }
        }

        for (dst, wire) in self.all_gossip.step(now, rng) {
            out.push((
                dst,
                CongosMsg::Gossip {
                    lane: GossipLane::All { dline },
                    wire: Box::new(wire),
                },
                TAG_ALL_GOSSIP,
            ));
        }

        self.check_confirmations(partitions);
        out.extend(self.fire_fallbacks(now));
        if self.clock.is_block_end(now) {
            self.prune(now);
        }
        out
    }

    /// Routes an incoming protocol message into the right sub-service.
    /// `Partials` fragments are returned to the node for reassembly.
    pub(crate) fn on_receive(
        &mut self,
        now: Round,
        src: ProcessId,
        msg: CongosMsg,
        partitions: &PartitionSet,
    ) -> Vec<Fragment> {
        match msg {
            CongosMsg::Gossip { lane, wire } => match lane {
                GossipLane::Group { ell, .. } => {
                    if let Some(l) = self.lanes.get_mut(ell as usize) {
                        l.gossip.on_receive(now, src, *wire);
                    }
                }
                GossipLane::All { .. } => self.all_gossip.on_receive(now, src, *wire),
            },
            CongosMsg::ProxyRequest {
                ell, fragments, ..
            } => {
                if let Some(l) = self.lanes.get_mut(ell as usize) {
                    // [PROXY:CONFIDENTIAL] sanity: only fragments of our own
                    // group may be proxied to us.
                    debug_assert!(fragments.iter().all(|f| f.group == l.my_group));
                    l.proxy.on_request(src, fragments);
                }
            }
            CongosMsg::ProxyAck { ell, .. } => {
                if let Some(l) = self.lanes.get_mut(ell as usize) {
                    l.proxy.on_ack(src, partitions.partition(ell as usize));
                }
            }
            CongosMsg::Partials { fragments, .. } => return fragments,
            CongosMsg::Shoot { .. } => unreachable!("Shoot handled at node level"),
        }
        Vec::new()
    }

    /// Compute-phase drain: dispatch gossip deliveries into the services and
    /// return the fragments this process received through its groups (for
    /// reassembly if it is a destination).
    pub(crate) fn post_receive(&mut self) -> Vec<Fragment> {
        let mut to_save = Vec::new();
        for lane in &mut self.lanes {
            for rumor in lane.gossip.take_delivered() {
                let origin = rumor.id.origin;
                match rumor.payload.as_ref() {
                    GossipPayload::Fragments(frags) => {
                        for f in frags {
                            debug_assert_eq!(f.partition, lane.ell);
                            debug_assert_eq!(f.group, lane.my_group);
                            lane.gd.inject(f.clone());
                            to_save.push(f.clone());
                        }
                    }
                    GossipPayload::ProxyMeta { failed_proxies } => {
                        lane.proxy.on_meta(origin, failed_proxies);
                    }
                    GossipPayload::GdShare { hits } => {
                        lane.gd.on_share(origin, hits);
                    }
                    GossipPayload::Distribution { .. } => {
                        debug_assert!(false, "Distribution rides AllGossip only");
                    }
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
        to_save
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
    /// every destination.
    fn fire_fallbacks(&mut self, now: Round) -> Sends {
        let mut out: Sends = Vec::new();
        let expired: Vec<CongosRumorId> = self
            .cache
            .iter()
            .filter(|(_, c)| c.expire == now)
            .map(|(rid, _)| *rid)
            .collect();
        for rid in expired {
            let c = self.cache.remove(&rid).expect("present");
            self.stats.fallbacks += 1;
            for q in c.rumor.dest.iter() {
                if q != self.me {
                    out.push((
                        q,
                        CongosMsg::Shoot {
                            rumor: c.rumor.clone(),
                            rid,
                            direct: false,
                        },
                        TAG_SHOOT,
                    ));
                }
            }
        }
        // Anything past its expiry (possible only if this process was
        // crashed across the boundary — then it lost this state anyway) is
        // dropped defensively.
        self.cache.retain(|_, c| c.expire > now);
        out
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
    use congos_sim::IdSet;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const DLINE: u64 = 64; // block 16, iteration 10

    fn setup(me: usize, n: usize) -> (ClassEngine, PartitionSet, CongosConfig, SmallRng) {
        let partitions = PartitionSet::bits(n);
        let cfg = CongosConfig::base();
        let mut engine = ClassEngine::new(ProcessId::new(me), n, DLINE, &partitions);
        engine.configure_gossip(&cfg);
        (engine, partitions, cfg, SmallRng::seed_from_u64(7))
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
        let _ = engine.on_send(Round(0), &mut rng, &cfg, &partitions, u64::MAX);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);

        // Rest of block 0: fragments spread via gossip; the Proxy service
        // has only collected them into `waiting`.
        for t in 1..16u64 {
            let sends = engine.on_send(Round(t), &mut rng, &cfg, &partitions, u64::MAX);
            assert!(
                !sends
                    .iter()
                    .any(|(_, m, _)| matches!(m, CongosMsg::ProxyRequest { .. })),
                "premature proxy request at round {t}"
            );
        }
        // Round 16 is block 1's first round: proxy requests go out, and each
        // targets the fragment's own group ([PROXY:CONFIDENTIAL]).
        let sends = engine.on_send(Round(16), &mut rng, &cfg, &partitions, u64::MAX);
        let requests: Vec<_> = sends
            .iter()
            .filter_map(|(dst, m, _)| match m {
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
            let sends = engine.on_send(Round(t), &mut rng, &cfg, &partitions, u64::MAX);
            assert!(
                !sends.iter().any(|(_, m, _)| matches!(m, CongosMsg::Shoot { .. })),
                "premature shoot at round {t}"
            );
        }
        let sends = engine.on_send(Round(DLINE), &mut rng, &cfg, &partitions, u64::MAX);
        let shoots: Vec<_> = sends
            .iter()
            .filter(|(_, m, _)| matches!(m, CongosMsg::Shoot { .. }))
            .collect();
        assert_eq!(shoots.len(), 2, "one shoot per destination");
        for (dst, m, tag) in &sends {
            if let CongosMsg::Shoot { rumor, direct, .. } = m {
                assert!(rumor.dest.contains(*dst), "shoot only to destinations");
                assert!(!direct);
                assert_eq!(*tag, TAG_SHOOT);
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
            let sends = engine.on_send(Round(t), &mut rng, &cfg, &partitions, u64::MAX);
            shoots += sends
                .iter()
                .filter(|(_, m, _)| matches!(m, CongosMsg::Shoot { .. }))
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
        let sends = engine.on_send(Round(0), &mut rng, &cfg, &partitions, u64::MAX);
        // Group gossip pushes carry the own-group fragments immediately, and
        // the filter confines them to the sender's groups.
        let mut pushes = 0;
        for (dst, m, _) in &sends {
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
}
