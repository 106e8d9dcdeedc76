//! What one measured unit yields, whichever system ran it.

use std::collections::BTreeMap;

use congos::{FragStoreStats, NodeStats};

use crate::trace::Span;
use crate::workloads::Assessment;

/// Measurements of one complete execution of a workload.
#[derive(Debug)]
pub struct Unit {
    pub seed: u64,
    /// Everything before round 0.
    pub setup_s: f64,
    /// Wall of the round loop only.
    pub wall_s: f64,
    /// Wall of each round (TCP: node 0's rounds).
    pub round_ms: Vec<f64>,
    /// Protocol messages sent over the round loop.
    pub msgs: u64,
    pub msgs_per_round_max: u64,
    /// `harness::mem::bytes_allocated` delta over the round loop.
    pub alloc_bytes: u64,
    /// `harness::mem::bytes_live_peak` at loop end (process-wide, monotone).
    pub live_peak_bytes: u64,
    pub assessment: Assessment,
    /// Per-layer values of this unit (traced units only).
    pub layer: BTreeMap<String, f64>,
    /// Spans of this unit (traced units only).
    pub spans: Vec<Span>,
}

pub fn sum_stats(stats: impl Iterator<Item = NodeStats>) -> NodeStats {
    stats.fold(NodeStats::default(), |a, s| NodeStats {
        injected: a.injected + s.injected,
        confirmed: a.confirmed + s.confirmed,
        fallbacks: a.fallbacks + s.fallbacks,
        direct: a.direct + s.direct,
        gossip_fallbacks: a.gossip_fallbacks + s.gossip_fallbacks,
        // No workload enables cover traffic: the decoy counters stay 0.
        ..a
    })
}

/// The `congos.node.*` and `congos.fragstore.*` per-layer values, common to
/// the simulator and the TCP cluster.
pub fn node_layer_metrics(
    layer: &mut BTreeMap<String, f64>,
    stats: &NodeStats,
    frag_before: &FragStoreStats,
    frag_after: &FragStoreStats,
) {
    layer.insert("congos.node.injected".into(), stats.injected as f64);
    layer.insert("congos.node.confirmed".into(), stats.confirmed as f64);
    layer.insert("congos.node.fallbacks".into(), stats.fallbacks as f64);
    layer.insert("congos.node.direct".into(), stats.direct as f64);
    layer.insert(
        "congos.node.gossip_fallbacks".into(),
        stats.gossip_fallbacks as f64,
    );
    layer.insert(
        "congos.node.fallback_share".into(),
        stats.fallbacks as f64 / stats.injected.max(1) as f64,
    );
    let hits = frag_after.hits - frag_before.hits;
    let misses = frag_after.misses - frag_before.misses;
    layer.insert("congos.fragstore.hits".into(), hits as f64);
    layer.insert("congos.fragstore.misses".into(), misses as f64);
    layer.insert(
        "congos.fragstore.hit_ratio".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );
}
