//! Quality of Delivery (Definition 1, Lemma 4): the one verdict on a run.
//!
//! A rumor injected at `p` in round `t` with deadline `ρ.d` binds each
//! destination `q` only when both stay continuously alive over
//! `[t, t + ρ.d]`; every such *admissible* pair must be delivered by round
//! `t + ρ.d`. [`classify`] judges a finished run's deliveries against the
//! injection log ([`CrriAdversary::injections`](crate::CrriAdversary::injections))
//! and the engine's liveness history and topology, so the harness, the
//! tests and the examples all apply this one rule.

use std::collections::HashMap;

use congos_sim::{LivenessLog, ProcessId, Round, Topology};

use crate::workload::InjectionLogEntry;

/// Quality-of-Delivery classification of (rumor, destination) pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QodSummary {
    /// Pairs where source and destination were continuously alive.
    pub admissible: usize,
    /// Admissible pairs delivered by the deadline.
    pub on_time: usize,
    /// Admissible pairs delivered after the deadline (a QoD violation!).
    pub late: usize,
    /// Admissible pairs never delivered (a QoD violation!).
    pub missed: usize,
    /// Pairs exempted by crashes (not admissible).
    pub inadmissible: usize,
    /// Pairs exempted by the topology: source and destination were
    /// continuously alive but no temporal path connected them within the
    /// deadline window, so no protocol could have delivered (only non-zero
    /// on non-complete topologies; the reachability check floods one hop
    /// per round ignoring crashes, so it never exempts a pair a protocol
    /// could actually have served).
    pub unreachable: usize,
}

impl QodSummary {
    /// `true` when every admissible pair was delivered on time.
    pub fn perfect(&self) -> bool {
        self.late == 0 && self.missed == 0
    }

    /// On-time fraction over admissible pairs (1.0 when none).
    pub fn on_time_rate(&self) -> f64 {
        if self.admissible == 0 {
            1.0
        } else {
            self.on_time as f64 / self.admissible as f64
        }
    }
}

/// What [`classify`] finds in a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QodVerdict {
    /// The count of pairs in each class.
    pub summary: QodSummary,
    /// Rounds from injection to first delivery of each on-time pair, in
    /// injection-log order.
    pub latencies: Vec<u64>,
    /// The late and missed admissible pairs as (wid, destination), in
    /// injection-log order.
    pub violations: Vec<(u64, ProcessId)>,
}

impl QodVerdict {
    /// Panics, naming the first late or missed pair, unless every
    /// admissible pair was delivered on time.
    #[track_caller]
    pub fn assert_on_time(&self) {
        if let Some((wid, dest)) = self.violations.first() {
            panic!(
                "QoD violated: rumor {wid} late or missed at {dest} ({} violations; {:?})",
                self.violations.len(),
                self.summary
            );
        }
    }

    /// [`assert_on_time`](Self::assert_on_time) with no pair exempt, as a
    /// failure-free run on the complete network requires: every pair of
    /// the injection log was delivered on time.
    #[track_caller]
    pub fn assert_every_pair_on_time(&self) {
        self.assert_on_time();
        let s = self.summary;
        assert_eq!(
            (s.inadmissible, s.unreachable),
            (0, 0),
            "exempt pairs: {s:?}"
        );
    }
}

/// Classifies every (rumor, destination) pair of `injections` against
/// `deliveries`, given as (wid, receiving process, round).
///
/// A pair is `inadmissible` when its source or destination was not
/// continuously alive over the deadline window, `unreachable` when the
/// topology offered no temporal path within it, and otherwise admissible:
/// on time when its first delivery falls at or before `round + deadline`,
/// late when after, missed when there is none. Deliveries of a wid the log
/// does not hold are ignored.
pub fn classify(
    injections: &[InjectionLogEntry],
    deliveries: impl IntoIterator<Item = (u64, ProcessId, Round)>,
    liveness: &LivenessLog,
    topology: &Topology,
) -> QodVerdict {
    let mut first: HashMap<(u64, ProcessId), Round> = HashMap::new();
    for (wid, process, round) in deliveries {
        first
            .entry((wid, process))
            .and_modify(|r| *r = (*r).min(round))
            .or_insert(round);
    }
    let mut v = QodVerdict::default();
    for entry in injections {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        let src_ok = liveness.continuously_alive(entry.source, t, end);
        for d in &entry.spec.dest {
            if !src_ok || !liveness.continuously_alive(*d, t, end) {
                v.summary.inadmissible += 1;
                continue;
            }
            if !topology.reachable_within(entry.source, *d, t, end) {
                v.summary.unreachable += 1;
                continue;
            }
            v.summary.admissible += 1;
            match first.get(&(entry.spec.id, *d)) {
                Some(&r) if r <= end => {
                    v.summary.on_time += 1;
                    v.latencies.push(r - t);
                    continue;
                }
                Some(_) => v.summary.late += 1,
                None => v.summary.missed += 1,
            }
            v.violations.push((entry.spec.id, *d));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RumorSpec;
    use congos_sim::TopologySpec;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Rumor `wid` injected at `source` in `round` with deadline 10.
    fn inj(wid: u64, source: usize, round: u64, dest: &[usize]) -> InjectionLogEntry {
        let dest = dest.iter().map(|&d| p(d)).collect();
        InjectionLogEntry {
            round: Round(round),
            source: p(source),
            spec: RumorSpec::new(wid, vec![], 10, dest),
        }
    }

    fn complete(n: usize) -> Topology {
        Topology::build(TopologySpec::Complete, n, 0)
    }

    /// (admissible, on time, late, missed, inadmissible, unreachable).
    fn counts(v: &QodVerdict) -> [usize; 6] {
        let s = v.summary;
        [
            s.admissible,
            s.on_time,
            s.late,
            s.missed,
            s.inadmissible,
            s.unreachable,
        ]
    }

    #[test]
    fn on_time_up_to_the_deadline_round_late_after_and_missed_without() {
        let log = [inj(0, 0, 5, &[1, 2, 3])];
        let delivered = [(0, p(1), Round(15)), (0, p(2), Round(16))];
        let v = classify(&log, delivered, &LivenessLog::new(4), &complete(4));
        assert_eq!(counts(&v), [3, 1, 1, 1, 0, 0]);
        assert_eq!(v.latencies, [10]);
        assert_eq!(v.violations, [(0, p(2)), (0, p(3))]);
    }

    #[test]
    fn a_crash_of_source_or_destination_in_the_window_exempts_the_pair() {
        // Source 0 crashes in its rumor's last round; destination 2 of the
        // second rumor crashes in that rumor's first.
        let mut liveness = LivenessLog::new(4);
        liveness.record_crash(p(0), Round(10));
        liveness.record_crash(p(2), Round(20));
        let log = [inj(0, 0, 0, &[1]), inj(1, 3, 20, &[2, 1])];
        let v = classify(&log, [(1, p(1), Round(21))], &liveness, &complete(4));
        assert_eq!(counts(&v), [1, 1, 0, 0, 2, 0]);
    }

    #[test]
    fn a_pair_no_temporal_path_joins_is_unreachable() {
        // Churn at p = 1 over a complete base severs every link in every
        // round; only a process's own rumor reaches it.
        let blackout = Topology::build(TopologySpec::churn(1.0), 3, 0);
        let log = [inj(0, 0, 0, &[0, 1])];
        let v = classify(&log, [(0, p(0), Round(0))], &LivenessLog::new(3), &blackout);
        assert_eq!(counts(&v), [1, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn only_the_first_delivery_counts_and_unknown_wids_are_ignored() {
        let log = [inj(0, 0, 0, &[1]), inj(1, 0, 0, &[1])];
        let delivered = [
            (1, p(1), Round(11)),
            (0, p(1), Round(4)),
            (0, p(1), Round(30)),
            (1, p(1), Round(3)),
            (9, p(1), Round(2)),
        ];
        let v = classify(&log, delivered, &LivenessLog::new(2), &complete(2));
        assert_eq!(counts(&v), [2, 2, 0, 0, 0, 0]);
        assert_eq!(v.latencies, [4, 3]);
    }

    #[test]
    #[should_panic(expected = "exempt pairs")]
    fn assert_every_pair_on_time_rejects_an_exempt_pair() {
        let mut liveness = LivenessLog::new(2);
        liveness.record_crash(p(1), Round(3));
        let v = classify(&[inj(0, 0, 0, &[1])], [], &liveness, &complete(2));
        v.assert_every_pair_on_time();
    }

    #[test]
    #[should_panic(expected = "rumor 3 late or missed at p1")]
    fn assert_on_time_names_the_first_violation() {
        let v = classify(
            &[inj(3, 0, 0, &[1])],
            [],
            &LivenessLog::new(2),
            &complete(2),
        );
        v.assert_on_time();
    }
}
