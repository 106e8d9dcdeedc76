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
//!
//! Only a rumor's source ever consults `hitSetM` about it, and the cache
//! holds exactly this engine's own unsettled rumors, so the matrix lives in
//! the cache: each `CachedRumor` records, per `(ℓ, g)`, which of *its*
//! destinations some `Distribution` reported served. A hit for any other
//! rumor is never queried and is skipped on arrival; a rumor's coverage
//! goes with it once it is confirmed or shot.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::SmallRng;

use congos_gossip::{ContinuousGossip, GossipConfig, GossipWire};
use congos_sim::message::SendColumns;
use congos_sim::{BlockClock, IdSet, ProcessId, Round};

use crate::config::CongosConfig;
use crate::messages::{
    CongosMsg, Fragment, GossipLane, GossipPayload, TAG_ALL_GOSSIP, TAG_GROUP_GOSSIP,
};
use crate::node::{NodeStats, StateCensus};
use crate::partition::PartitionSet;
use crate::rumor::{CongosRumorId, Rumor};
use crate::services::group_distribution::GdService;
use crate::services::proxy::ProxyService;
use crate::split;

/// Whether `f` is of a split some correct process makes in class `dline`:
/// of that class, of one of the `p` partitions, split into its `k` groups,
/// and of one of them. (The node files a fragment's state to expire at a
/// horizon taken from its `dline`, so that field must be the checked one.)
fn fits(f: &Fragment, dline: u64, p: usize, k: usize) -> bool {
    f.dline == dline && (f.partition as usize) < p && f.k as usize == k && f.group < f.k
}

/// Queues `msg` for `dst` under the tag the message implies.
fn send(out: &mut SendColumns<CongosMsg>, dst: ProcessId, msg: CongosMsg) {
    out.push(dst, msg.tag(), msg);
}

/// The emitter a gossip endpoint of `lane` steps into: queues each wire on
/// `out` once, to all of its targets.
fn gossip_to(
    out: &mut SendColumns<CongosMsg>,
    lane: GossipLane,
) -> impl FnMut(&[ProcessId], GossipWire<GossipPayload>) + '_ {
    move |targets, wire| {
        let msg = CongosMsg::Gossip { lane, wire };
        out.push_each(targets.iter().copied(), msg.tag(), msg);
    }
}

struct Lane {
    ell: u16,
    my_group: u8,
    gossip: ContinuousGossip<GossipPayload>,
    proxy: ProxyService,
    gd: GdService,
}

/// An own rumor awaiting confirmation.
struct CachedRumor {
    /// Shared by every destination's `Shoot` if the fallback fires.
    rumor: Arc<Rumor>,
    expire: Round,
    /// Words per `(ℓ, g)` slot of `coverage`: `⌈|dest| / 64⌉`, at least 1.
    width: usize,
    /// This rumor's row of `hitSetM`: one slot per `(ℓ, g)`, in that order,
    /// whose bit `dest.rank(q)` is set once a `Distribution` of `(ℓ, g)`
    /// reported serving destination `q` — partitions × groups × |dest|
    /// bits, however large `n` is.
    coverage: Vec<u64>,
}

impl CachedRumor {
    fn new(rumor: Rumor, expire: Round, slots: usize) -> Self {
        let width = rumor.dest.len().div_ceil(64).max(1);
        CachedRumor {
            rumor: Arc::new(rumor),
            expire,
            width,
            coverage: vec![0; slots * width],
        }
    }

    /// Records that `(ℓ, g)`'s `slot` served `q`; a non-destination is no
    /// part of the rule and is ignored.
    fn cover(&mut self, slot: usize, q: ProcessId) {
        if self.rumor.dest.contains(q) {
            let bit = slot * self.width * 64 + self.rumor.dest.rank(q);
            self.coverage[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Figure 8's confirmation rule, generalized to `k` groups: confirmed
    /// once, for some partition `ℓ`, **every** group's hit-set covers
    /// **every** destination — i.e. each destination was explicitly sent
    /// each of the `k` fragments. (Lemma 4's soundness direction: a hit-set
    /// entry exists only if the fragment was actually sent.) A slot holds at
    /// most |dest| bits, so a partition's `k` slots are all full exactly when
    /// they hold `k·|dest|`.
    fn is_confirmed(&self, groups: usize) -> bool {
        let full = groups * self.rumor.dest.len();
        self.coverage
            .chunks_exact(groups * self.width)
            .any(|part| part.iter().map(|w| w.count_ones() as usize).sum::<usize>() == full)
    }
}

pub(crate) struct ClassEngine {
    me: ProcessId,
    n: usize,
    dline: u64,
    clock: BlockClock,
    sqrt_d: u64,
    lanes: Vec<Lane>,
    all_gossip: ContinuousGossip<GossipPayload>,
    /// Groups per partition (`k`).
    groups: usize,
    cache: BTreeMap<CongosRumorId, CachedRumor>,
    /// Own rumors confirmed through the pipeline.
    confirmed: u64,
    /// Own rumors that hit the deadline fallback ("shoot").
    fallbacks: u64,
    /// Received messages dropped as ones no correct process sends.
    rejected: u64,
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
            groups: partitions.groups_per_partition(),
            cache: BTreeMap::new(),
            confirmed: 0,
            fallbacks: 0,
            rejected: 0,
        }
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
        let dest = Arc::new(rumor.dest.clone());
        for lane in &mut self.lanes {
            let partition = partitions.partition(lane.ell as usize);
            let k = partition.group_count();
            let frags = split::split(rng, &rumor.data, k);
            for (g, bytes) in frags.into_iter().map(Arc::from).enumerate() {
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
                        GossipPayload::Fragments(vec![fragment]),
                        self.sqrt_d,
                        group_set,
                    );
                } else {
                    lane.proxy.inject(fragment);
                }
            }
        }
        let slots = self.lanes.len() * self.groups;
        self.cache
            .insert(rid, CachedRumor::new(rumor, now + self.dline, slots));
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
                    let group_set = || partition.group(lane.my_group).clone();
                    if !buffer.is_empty() {
                        lane.gossip.inject(
                            now,
                            GossipPayload::Fragments(buffer),
                            self.sqrt_d,
                            group_set(),
                        );
                    }
                    if lane.proxy.beacon() || !failed.is_empty() {
                        let group_set = group_set();
                        let payload = GossipPayload::ProxyMeta {
                            failed_proxies: failed,
                        };
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
                        let payload = GossipPayload::GdShare { hits };
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
                    let sources = IdSet::from_iter(self.n, hits.iter().map(|(_, rid)| rid.source));
                    self.all_gossip.inject(
                        now,
                        GossipPayload::Distribution {
                            partition: lane.ell,
                            group: lane.my_group,
                            hits,
                        },
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

        self.settle(now, out);
    }

    /// Routes an incoming protocol message, borrowed from the inbox, into
    /// the right sub-service; each path clones only what it keeps.
    /// `Partials` fragments are appended to `saved`, the node's reassembly
    /// queue. A message no correct process sends — a partition index this
    /// configuration does not have, or a proxy request carrying a fragment
    /// of a foreign group or partition — is dropped and counted in
    /// [`NodeStats::rejected`], in every build profile; so is each
    /// fragment of another class or of a split no correct process makes
    /// ([`fits`]).
    pub(crate) fn on_receive(
        &mut self,
        now: Round,
        src: ProcessId,
        msg: &CongosMsg,
        partitions: &PartitionSet,
        saved: &mut Vec<Fragment>,
    ) {
        let (dline, p, k) = (self.dline, self.lanes.len(), self.groups);
        match msg {
            CongosMsg::Gossip { lane, wire } => match lane {
                GossipLane::Group { ell, .. } => match self.lanes.get_mut(*ell as usize) {
                    Some(l) => l.gossip.on_receive(now, src, wire),
                    None => self.rejected += 1,
                },
                GossipLane::All { .. } => self.all_gossip.on_receive(now, src, wire),
            },
            CongosMsg::ProxyRequest { ell, fragments, .. } => {
                let valid = fragments
                    .iter()
                    .all(|f| f.partition == *ell && fits(f, dline, p, k));
                match self.lanes.get_mut(*ell as usize) {
                    // [PROXY:CONFIDENTIAL]: only fragments of our own group
                    // may be proxied to us — an accepted foreign one would be
                    // re-gossiped inside a group that must never hold it.
                    Some(l) if valid && fragments.iter().all(|f| f.group == l.my_group) => {
                        l.proxy.on_request(src, fragments);
                    }
                    _ => self.rejected += 1,
                }
            }
            CongosMsg::ProxyAck { ell, .. } => match self.lanes.get_mut(*ell as usize) {
                Some(l) => l.proxy.on_ack(src, partitions.partition(*ell as usize)),
                None => self.rejected += 1,
            },
            CongosMsg::Partials { fragments, .. } => {
                let before = saved.len();
                saved.extend(fragments.iter().filter(|f| fits(f, dline, p, k)).cloned());
                self.rejected += (before + fragments.len() - saved.len()) as u64;
            }
            CongosMsg::Shoot { .. } => unreachable!("Shoot handled at node level"),
        }
    }

    /// Compute-phase drain: dispatch gossip deliveries into the services and
    /// append the fragments this process received through its groups to
    /// `saved` (for reassembly if it is a destination).
    pub(crate) fn post_receive(&mut self, saved: &mut Vec<Fragment>) {
        let (dline, p, k) = (self.dline, self.lanes.len(), self.groups);
        for lane in &mut self.lanes {
            for rumor in lane.gossip.take_delivered() {
                let origin = rumor.id.origin;
                match &rumor.payload {
                    GossipPayload::Fragments(frags) => {
                        for f in frags {
                            // A lane carries its own group's fragments of
                            // its own partition, of a split that fits, and
                            // no others.
                            if f.partition != lane.ell
                                || f.group != lane.my_group
                                || !fits(f, dline, p, k)
                            {
                                self.rejected += 1;
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
                    GossipPayload::Distribution { .. } => self.rejected += 1,
                }
            }
        }
        for rumor in self.all_gossip.take_delivered() {
            match &rumor.payload {
                GossipPayload::Distribution {
                    partition,
                    group,
                    hits,
                } if (*partition as usize) < self.lanes.len()
                    && (*group as usize) < self.groups =>
                {
                    let slot = *partition as usize * self.groups + *group as usize;
                    for (q, rid) in hits {
                        // Only the source asks about a rumor (Figure 8).
                        if rid.source != self.me {
                            continue;
                        }
                        if let Some(cached) = self.cache.get_mut(rid) {
                            cached.cover(slot, *q);
                        }
                    }
                }
                // AllGossip carries only Distribution, of a (partition,
                // group) this configuration has.
                _ => self.rejected += 1,
            }
        }
    }

    /// Settles the cache in one pass, in rid order: a rumor that
    /// [`is_confirmed`](CachedRumor::is_confirmed) leaves it; one whose
    /// (trimmed) deadline expires now without a confirmation takes the last
    /// two bullets of Figure 2 — sent whole, directly, to every destination,
    /// as one queued message. Anything past its expiry (possible only
    /// if this process was crashed across the boundary — then it lost this
    /// state anyway) is dropped defensively.
    fn settle(&mut self, now: Round, out: &mut SendColumns<CongosMsg>) {
        let (me, groups) = (self.me, self.groups);
        let (confirmed, fallbacks) = (&mut self.confirmed, &mut self.fallbacks);
        self.cache.retain(|&rid, cached| {
            if cached.is_confirmed(groups) {
                *confirmed += 1;
                return false;
            }
            if cached.expire == now {
                *fallbacks += 1;
                let shoot = CongosMsg::Shoot {
                    rumor: Arc::clone(&cached.rumor),
                    rid,
                    direct: false,
                };
                let others = cached.rumor.dest.iter().filter(|&q| q != me);
                out.push_each(others, shoot.tag(), shoot);
            }
            cached.expire > now
        });
    }

    /// Adds this class's counts to `stats`: its confirmations, fallbacks
    /// and rejections, and its substrate endpoints' deadline fallbacks.
    pub(crate) fn add_stats(&self, stats: &mut NodeStats) {
        stats.confirmed += self.confirmed;
        stats.fallbacks += self.fallbacks;
        stats.rejected += self.rejected;
        stats.gossip_fallbacks += self.lanes.iter().map(|l| l.gossip.fallbacks()).sum::<u64>()
            + self.all_gossip.fallbacks();
    }

    /// Number of own rumors still awaiting confirmation (diagnostics).
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Adds this class's per-rumor table sizes to `census`.
    pub(crate) fn count(&self, census: &mut StateCensus) {
        census.cached += self.cache_len();
        census.gossip += self.all_gossip.census();
        for lane in &self.lanes {
            census.gossip += lane.gossip.census();
            lane.proxy.count(census);
            lane.gd.count(census);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CongosConfig;
    use crate::messages::TAG_SHOOT;
    use congos_sim::{IdSet, Tag};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

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
        assert!(
            !requests.is_empty(),
            "proxy must fire at the block boundary"
        );
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
                !sends
                    .iter()
                    .any(|(_, _, m)| matches!(m, CongosMsg::Shoot { .. })),
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
        assert_eq!(engine.fallbacks, 1);
    }

    /// An AllGossip push of one `Distribution` from p1 to `to`; `seq` keeps
    /// the gossip ids of one test distinct. Pushes are born at round 0 and
    /// live through every test's last round (a push past its deadline is
    /// dropped on receipt).
    fn distribution(
        n: usize,
        to: ProcessId,
        seq: u32,
        partition: u16,
        group: u8,
        hits: Vec<(ProcessId, CongosRumorId)>,
    ) -> CongosMsg {
        all_gossip_push(
            n,
            to,
            seq,
            GossipPayload::Distribution {
                partition,
                group,
                hits,
            },
        )
    }

    fn all_gossip_push(n: usize, to: ProcessId, seq: u32, payload: GossipPayload) -> CongosMsg {
        CongosMsg::Gossip {
            lane: GossipLane::All { dline: DLINE },
            wire: congos_gossip::GossipWire::Push(Arc::new(
                vec![congos_gossip::GossipRumor {
                    id: congos_gossip::RumorId {
                        origin: ProcessId::new(1),
                        birth: Round(0),
                        seq,
                    },
                    payload,
                    duration: 2 * DLINE,
                    deadline: Round(2 * DLINE),
                    dest: IdSet::from_iter(n, [to]),
                    best_effort: true,
                }]
                .into(),
            )),
        }
    }

    /// Delivers `msgs` in one compute phase: receive, then drain.
    fn deliver(engine: &mut ClassEngine, now: u64, partitions: &PartitionSet, msgs: &[CongosMsg]) {
        let mut saved = Vec::new();
        for msg in msgs {
            engine.on_receive(Round(now), ProcessId::new(1), msg, partitions, &mut saved);
        }
        engine.post_receive(&mut saved);
    }

    #[test]
    fn confirmation_through_delivered_hits_suppresses_the_fallback() {
        let n = 8;
        let (mut engine, partitions, cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);

        // Deliver Distribution metadata claiming p3 got every group's
        // fragment of partition 0.
        let hits = (0..2u8)
            .map(|g| {
                distribution(
                    n,
                    ProcessId::new(0),
                    g.into(),
                    0,
                    g,
                    vec![(ProcessId::new(3), rid)],
                )
            })
            .collect::<Vec<_>>();
        deliver(&mut engine, 0, &partitions, &hits);
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
        assert_eq!(engine.confirmed, 1);
        assert_eq!(engine.fallbacks, 0);
    }

    #[test]
    fn partial_coverage_does_not_confirm() {
        let n = 8;
        let (mut engine, partitions, _cfg, mut rng) = setup(0, n);
        let (rid, r) = rumor(n, &[3]);
        engine.inject(Round(0), &mut rng, rid, r, &partitions);
        // Only group 0 of partition 0 reported the hit: unsound to confirm.
        let hit = distribution(
            n,
            ProcessId::new(0),
            0,
            0,
            0,
            vec![(ProcessId::new(3), rid)],
        );
        deliver(&mut engine, 0, &partitions, &[hit]);
        engine.settle(Round(1), &mut SendColumns::default());
        assert_eq!(engine.confirmed, 0);
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
                        congos_gossip::GossipWire::Push(batch) if batch
                            .rumors()
                            .iter()
                            .any(|r| matches!(r.payload, GossipPayload::Fragments(_)))
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
        assert_eq!(engine.rejected, 3);
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
        assert_eq!(engine.rejected, 0);
        let spread = regossips_fragments(&mut engine, &mut rng, &cfg, &partitions);
        assert!(spread, "a request for the own group is taken up");

        // A foreign group's fragment, one of another partition (p0 is in
        // group 0 of each), or one of a split no correct process makes
        // (every partition is split in two) spoils the request.
        let mixed = vec![fragment(n, 0, 0), fragment(n, 0, 1)];
        let crossed = vec![fragment(n, 1, 0)];
        let resplit = vec![Fragment {
            k: 3,
            ..fragment(n, 0, 0)
        }];
        for fragments in [mixed, crossed, resplit] {
            let (mut engine, partitions, cfg, mut rng) = setup(0, n);
            sends_at(&mut engine, 0, &mut rng, &cfg, &partitions);
            let msg = request(fragments);
            engine.on_receive(Round(0), from, &msg, &partitions, &mut Vec::new());
            assert_eq!(engine.rejected, 1);
            let spread = regossips_fragments(&mut engine, &mut rng, &cfg, &partitions);
            assert!(!spread, "nothing of a rejected request is re-gossiped");
        }
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
            wire: congos_gossip::GossipWire::Push(Arc::new(
                vec![congos_gossip::GossipRumor {
                    id: congos_gossip::RumorId {
                        origin: from,
                        birth: Round(0),
                        seq,
                    },
                    payload,
                    duration: 8,
                    deadline: Round(8),
                    dest: IdSet::from_iter(n, [ProcessId::new(0)]),
                    best_effort: true,
                }]
                .into(),
            )),
        };
        // Distribution rides AllGossip only; a group lane carries only its
        // own group's fragments of its own partition, split in two as every
        // partition is.
        let misplaced = GossipPayload::Distribution {
            partition: 0,
            group: 0,
            hits: vec![],
        };
        let fragments = GossipPayload::Fragments(vec![
            fragment(n, 0, 1),
            fragment(n, 1, 0),
            Fragment {
                k: 3,
                ..fragment(n, 0, 0)
            },
            fragment(n, 0, 0),
        ]);
        // AllGossip carries only Distribution, of a (partition, group) the
        // configuration has: two of its four pushes are out of range.
        let me = ProcessId::new(0);
        let (ells, groups) = (
            partitions.len() as u16,
            partitions.groups_per_partition() as u8,
        );
        let all = [
            all_gossip_push(n, me, 2, GossipPayload::GdShare { hits: vec![] }),
            distribution(n, me, 3, ells, 0, vec![]),
            distribution(n, me, 4, 0, groups, vec![]),
            distribution(n, me, 5, ells - 1, groups - 1, vec![]),
        ];
        let mut saved = Vec::new();
        for msg in [push(0, misplaced), push(1, fragments)].iter().chain(&all) {
            engine.on_receive(Round(0), from, msg, &partitions, &mut saved);
        }
        assert!(saved.is_empty(), "pushes deliver at post_receive");
        engine.post_receive(&mut saved);
        assert_eq!(saved, vec![fragment(n, 0, 0)]);
        assert_eq!(engine.rejected, 4 + 3);
    }

    /// Figure 8's rule over every hit ever delivered, whoever the rumor's
    /// source — what the confirmation matrix held before it moved into the
    /// cache.
    #[derive(Default)]
    struct Reference {
        hits: HashSet<(u16, u8, ProcessId, CongosRumorId)>,
        cache: BTreeMap<CongosRumorId, (IdSet, Round)>,
    }

    impl Reference {
        /// One send phase's `(confirmed, shot)` rumors, each in rid order.
        fn settle(&mut self, now: Round, partitions: &PartitionSet) -> [Vec<CongosRumorId>; 2] {
            let (hits, mut confirmed, mut shot) = (&self.hits, Vec::new(), Vec::new());
            self.cache.retain(|&rid, (dest, expire)| {
                let covered = partitions.iter().any(|(ell, p)| {
                    (0..p.group_count() as u8)
                        .all(|g| dest.iter().all(|q| hits.contains(&(ell as u16, g, q, rid))))
                });
                if covered {
                    confirmed.push(rid);
                    return false;
                }
                if *expire == now {
                    shot.push(rid);
                }
                *expire > now
            });
            [confirmed, shot]
        }
    }

    /// Random `Distribution` hits about `own`: all, some or none of its
    /// destinations (with duplicates), non-destinations, and the same
    /// targets for a foreign rumor of equal `(birth, seq)`.
    fn random_hits(
        rng: &mut SmallRng,
        n: usize,
        own: CongosRumorId,
        dest: &IdSet,
    ) -> Vec<(ProcessId, CongosRumorId)> {
        let targets: Vec<ProcessId> = match rng.gen_range(0..4) {
            0 | 1 => dest.iter().collect(),
            2 => dest.iter().filter(|_| rng.gen_bool(0.5)).collect(),
            _ => (0..3)
                .map(|_| ProcessId::new(rng.gen_range(0..n)))
                .collect(),
        };
        let rid = if rng.gen_bool(0.25) {
            let other = (own.source.as_usize() + rng.gen_range(1..n)) % n;
            CongosRumorId {
                source: ProcessId::new(other),
                ..own
            }
        } else {
            own
        };
        let mut hits: Vec<_> = targets.into_iter().map(|q| (q, rid)).collect();
        if let Some(&dup) = hits.first().filter(|_| rng.gen_bool(0.3)) {
            hits.push(dup);
        }
        hits
    }

    /// Drives a lone engine and the reference through one random run and
    /// checks every send phase's decisions against each other. Returns how
    /// many rumors were confirmed and how many shot.
    fn confirmation_matches_reference(partitions: PartitionSet, seed: u64) -> (usize, usize) {
        let n = partitions.n();
        // Under lean metadata the lowest member publishes a group's hits; a
        // process that is the lowest of none of its groups publishes
        // nothing, so every hit its engine sees is fed below.
        let me = (0..n)
            .rev()
            .map(ProcessId::new)
            .find(|&q| {
                partitions
                    .iter()
                    .all(|(_, p)| p.group(p.group_of(q)).iter().next() != Some(q))
            })
            .expect("some process publishes nothing");
        let cfg = CongosConfig::base().lean_metadata(true);
        let mut engine = ClassEngine::new(me, n, DLINE, &partitions, &cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference = Reference::default();
        let mut injected: Vec<(CongosRumorId, IdSet)> = Vec::new();
        let (mut seq, mut totals) = (0, (0, 0));
        let last_birth = 24;
        for t in 0..=last_birth + DLINE + 1 {
            let before: Vec<CongosRumorId> = engine.cache.keys().copied().collect();
            let counts = (engine.confirmed, engine.fallbacks);
            let sends = sends_at(&mut engine, t, &mut rng, &cfg, &partitions);
            let mut shot: Vec<CongosRumorId> = sends
                .iter()
                .filter_map(|(_, _, m)| match m {
                    CongosMsg::Shoot { rid, .. } => Some(*rid),
                    _ => None,
                })
                .collect();
            shot.dedup();
            let after: Vec<CongosRumorId> = engine.cache.keys().copied().collect();
            let confirmed: Vec<CongosRumorId> = before
                .into_iter()
                .filter(|rid| !after.contains(rid) && !shot.contains(rid))
                .collect();
            let [want_confirmed, want_shot] = reference.settle(Round(t), &partitions);
            assert_eq!(
                confirmed, want_confirmed,
                "seed {seed}, round {t}: confirmed"
            );
            assert_eq!(shot, want_shot, "seed {seed}, round {t}: shot");
            assert!(
                after.iter().eq(reference.cache.keys()),
                "seed {seed}, round {t}: cache"
            );
            assert_eq!(engine.confirmed - counts.0, confirmed.len() as u64);
            assert_eq!(engine.fallbacks - counts.1, shot.len() as u64);
            totals.0 += confirmed.len();
            totals.1 += shot.len();

            if t <= last_birth && rng.gen_bool(0.3) {
                let rid = CongosRumorId {
                    source: me,
                    birth: Round(t),
                    seq: 0,
                };
                let dest = IdSet::from_iter(
                    n,
                    (0..n)
                        .map(ProcessId::new)
                        .filter(|&q| q != me && rng.gen_bool(0.4)),
                );
                let dest = if dest.is_empty() {
                    IdSet::from_iter(n, [ProcessId::new(0)])
                } else {
                    dest
                };
                let r = Rumor {
                    wid: t,
                    data: vec![0xAA; 8],
                    deadline: DLINE,
                    dest: dest.clone(),
                };
                engine.inject(Round(t), &mut rng, rid, r, &partitions);
                reference
                    .cache
                    .insert(rid, (dest.clone(), Round(t + DLINE)));
                injected.push((rid, dest));
            }
            // Hits keep coming for rumors already confirmed or shot.
            let mut pushes = Vec::new();
            for _ in 0..rng.gen_range(0..3) {
                let Some((rid, dest)) = injected.get(rng.gen_range(0..injected.len().max(1)))
                else {
                    break;
                };
                let ell = rng.gen_range(0..partitions.len()) as u16;
                let g = rng.gen_range(0..partitions.groups_per_partition()) as u8;
                let hits = random_hits(&mut rng, n, *rid, dest);
                reference
                    .hits
                    .extend(hits.iter().map(|&(q, r)| (ell, g, q, r)));
                pushes.push(distribution(n, me, seq, ell, g, hits));
                seq += 1;
            }
            deliver(&mut engine, t, &partitions, &pushes);
        }
        assert_eq!(engine.rejected, 0);
        totals
    }

    #[test]
    fn confirmation_rule_matches_a_reference_over_every_hit() {
        let (mut confirmed, mut shot) = (0, 0);
        for seed in 0..12 {
            for partitions in [
                PartitionSet::bits(8),
                PartitionSet::random(12, 2, 1.0, seed),
            ] {
                let (c, s) = confirmation_matches_reference(partitions, seed);
                confirmed += c;
                shot += s;
            }
        }
        // The runs must exercise both outcomes.
        assert!(
            confirmed > 0 && shot > 0,
            "confirmed {confirmed}, shot {shot}"
        );
    }
}
