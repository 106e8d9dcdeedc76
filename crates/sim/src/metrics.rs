//! Per-round, per-service message metering.
//!
//! The paper's complexity measure is *per-round message complexity*
//! (Definition 3): the maximum, over rounds, of the number of point-to-point
//! messages sent in that round. Tags let callers meter individual services —
//! e.g. Lemma 7 counts Proxy/GroupDistribution messages excluding the
//! GroupGossip black box.
//!
//! Each send also records its payload's bytes, as the protocol's
//! [`Protocol::msg_size`](crate::Protocol::msg_size) gives them. For CONGOS
//! that is the count of what a fresh TCP encoder writes for the message
//! behind its frame header (`congos::wire`), every pushed gossip rumor as a
//! definition: the simulator and the wire count a byte the same way.

use crate::message::Tag;
use std::collections::BTreeMap;

/// Message counts (and payload bytes) for a single round, keyed by tag
/// name.
///
/// Byte accounting covers the paper's *communication complexity* discussion
/// (Section 7): message counts alone hide the cost of large batched
/// envelopes, so every send also records its payload's wire size, as the
/// protocol's [`Protocol::msg_size`](crate::Protocol::msg_size) gives it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundCounts {
    by_tag: BTreeMap<&'static str, (u64, u64)>, // (messages, bytes)
}

impl RoundCounts {
    /// Total messages sent in the round.
    pub fn total(&self) -> u64 {
        self.by_tag.values().map(|(m, _)| m).sum()
    }

    /// Total payload bytes sent in the round.
    pub fn total_bytes(&self) -> u64 {
        self.by_tag.values().map(|(_, b)| b).sum()
    }

    /// Messages sent by the service with tag `tag` in this round.
    pub fn of(&self, tag: Tag) -> u64 {
        self.by_tag.get(tag.name()).map(|(m, _)| *m).unwrap_or(0)
    }

    /// Payload bytes sent by the service with tag `tag` in this round.
    pub fn bytes_of(&self, tag: Tag) -> u64 {
        self.by_tag.get(tag.name()).map(|(_, b)| *b).unwrap_or(0)
    }

    /// Iterates `(tag name, count)` in tag-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_tag.iter().map(|(k, (m, _))| (*k, *m))
    }

    pub(crate) fn record(&mut self, tag: Tag, count: u64, bytes: u64) {
        let e = self.by_tag.entry(tag.name()).or_insert((0, 0));
        e.0 += count;
        e.1 += bytes;
    }
}

/// Accumulated metrics across an execution.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    rounds: Vec<RoundCounts>,
    deliveries: u64,
    topology_drops: u64,
    rejected_decisions: u64,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts for round `t` (empty counts if the execution is shorter).
    pub fn round(&self, t: u64) -> RoundCounts {
        self.rounds.get(t as usize).cloned().unwrap_or_default()
    }

    /// Number of rounds metered so far.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` if no rounds have been metered.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Maximum per-round total message count — the paper's per-round message
    /// complexity of the metered execution.
    pub fn max_per_round(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundCounts::total)
            .max()
            .unwrap_or(0)
    }

    /// Maximum per-round payload byte count — the per-round *communication*
    /// complexity of the metered execution (Section 7 of the paper).
    pub fn max_bytes_per_round(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundCounts::total_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total payload bytes over the whole execution.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(RoundCounts::total_bytes).sum()
    }

    /// Total payload bytes for one service tag.
    pub fn total_bytes_of(&self, tag: Tag) -> u64 {
        self.rounds.iter().map(|r| r.bytes_of(tag)).sum()
    }

    /// Maximum per-round count for one service tag.
    pub fn max_per_round_of(&self, tag: Tag) -> u64 {
        self.rounds.iter().map(|r| r.of(tag)).max().unwrap_or(0)
    }

    /// Total messages over the whole execution.
    pub fn total(&self) -> u64 {
        self.rounds.iter().map(RoundCounts::total).sum()
    }

    /// Total messages for one service tag.
    pub fn total_of(&self, tag: Tag) -> u64 {
        self.rounds.iter().map(|r| r.of(tag)).sum()
    }

    /// Mean messages per round (0 for an empty execution).
    pub fn mean_per_round(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.rounds.len() as f64
        }
    }

    /// Per-round totals as a series (for complexity-shape experiments).
    pub fn per_round_series(&self) -> Vec<u64> {
        self.rounds.iter().map(RoundCounts::total).collect()
    }

    /// Number of protocol outputs delivered (engine-level convenience).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Messages dropped by the delivery phase because the topology had no
    /// src→dst link that round. Always 0 on the complete topology — sends
    /// are still metered normally (the process paid for the send; the
    /// network ate it).
    pub fn topology_drops(&self) -> u64 {
        self.topology_drops
    }

    /// Adversary decisions the engine refused because they were invalid in
    /// the round they were made: a crash of a dead process, a restart of a
    /// live one, a second liveness event of one process, or a second
    /// injection at one process (the first input is kept). A valid
    /// adversary scores 0.
    pub fn rejected_decisions(&self) -> u64 {
        self.rejected_decisions
    }

    /// All tag names seen during the execution.
    pub fn tags(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .rounds
            .iter()
            .flat_map(|r| r.iter().map(|(k, _)| k))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds.push(RoundCounts::default());
    }

    /// Meters `count` sends under `tag` totalling `bytes` in this round.
    pub(crate) fn record_sends(&mut self, tag: Tag, count: u64, bytes: u64) {
        self.rounds
            .last_mut()
            .expect("begin_round before record_sends")
            .record(tag, count, bytes);
    }

    pub(crate) fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    pub(crate) fn record_topology_drop(&mut self) {
        self.topology_drops += 1;
    }

    pub(crate) fn record_rejected_decision(&mut self) {
        self.rejected_decisions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Metrics {
        let mut m = Metrics::new();
        m.begin_round();
        m.record_sends(Tag("a"), 2, 20);
        m.record_sends(Tag("b"), 1, 5);
        m.begin_round();
        m.record_sends(Tag("b"), 1, 5);
        m.record_delivery();
        m
    }

    #[test]
    fn per_round_totals() {
        let m = sample();
        assert_eq!(m.round(0).total(), 3);
        assert_eq!(m.round(1).total(), 1);
        assert_eq!(m.round(99).total(), 0);
        assert_eq!(m.max_per_round(), 3);
        assert_eq!(m.total(), 4);
        assert_eq!(m.per_round_series(), vec![3, 1]);
    }

    #[test]
    fn per_tag_metering() {
        let m = sample();
        assert_eq!(m.round(0).of(Tag("a")), 2);
        assert_eq!(m.max_per_round_of(Tag("b")), 1);
        assert_eq!(m.total_of(Tag("a")), 2);
        assert_eq!(m.tags(), vec!["a", "b"]);
    }

    #[test]
    fn byte_accounting() {
        let m = sample();
        assert_eq!(m.round(0).total_bytes(), 25);
        assert_eq!(m.round(0).bytes_of(Tag("a")), 20);
        assert_eq!(m.max_bytes_per_round(), 25);
        assert_eq!(m.total_bytes(), 30);
        assert_eq!(m.total_bytes_of(Tag("b")), 10);
    }

    #[test]
    fn means_and_deliveries() {
        let m = sample();
        assert!((m.mean_per_round() - 2.0).abs() < 1e-12);
        assert_eq!(m.deliveries(), 1);
        assert_eq!(Metrics::new().mean_per_round(), 0.0);
        assert!(Metrics::new().is_empty());
    }
}
