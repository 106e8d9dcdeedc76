//! The confidentiality auditor.
//!
//! An omniscient observer (it sees every delivered message) that tracks,
//! for every process, every rumor fragment the process has *ever* received
//! — exactly the knowledge an honest-but-curious process could hoard — and
//! checks the paper's guarantees on-line:
//!
//! * **Confidentiality (Definition 2 / Lemma 3 / Lemma 14):** no process
//!   outside `ρ.D ∪ {source}` ever collects all `k` fragments of any single
//!   `(rumor, partition)` split, nor receives the whole rumor; with
//!   registered coalitions (the `CRRI(τ)` adversary of Section 6), the
//!   *pooled* knowledge of each coalition is checked the same way.
//! * **Delivery integrity:** every value a protocol delivers matches the
//!   injected data and lands only at destination processes.
//!
//! Fragments from different partitions use independent pads, so
//! reconstruction is only possible within one `(rumor, partition)` pair —
//! which is what the auditor checks (XOR-combining fragments across
//! partitions yields uniform noise; see [`crate::split`]).
//!
//! The auditor is topology-agnostic by construction: every verdict is
//! driven by messages that were *actually delivered* (`on_deliver` /
//! `on_output`), never by the assumption that a sent message arrives. On a
//! sparse or churning topology the engine simply delivers fewer envelopes
//! and the auditor sees exactly that smaller set — confidentiality
//! verdicts need no connectivity gate, and dropped links can only ever
//! *shrink* what a curious process or coalition learns.

use std::collections::{HashMap, HashSet};

use congos_sim::{EnvelopeRef, IdSet, Observer, OutputRecord, ProcessId, Round};

use crate::messages::{CongosMsg, Fragment};
use crate::node::CongosNode;
use crate::rumor::{CongosInput, CongosRumorId, DeliveredRumor};
use crate::services::expiry::ExpiryRing;

/// A violation the auditor detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A process outside `ρ.D ∪ {source}` collected a full fragment set.
    NonDestinationReconstructed {
        /// The offending process.
        process: ProcessId,
        /// The rumor it can reconstruct.
        rid: CongosRumorId,
        /// The partition whose fragments completed.
        partition: u16,
    },
    /// A coalition of curious processes pooled a full fragment set.
    CoalitionReconstructed {
        /// Index of the coalition (in registration order).
        coalition: usize,
        /// The rumor it can reconstruct.
        rid: CongosRumorId,
        /// The partition whose fragments completed.
        partition: u16,
    },
    /// A whole rumor was sent to a process outside its destination set.
    WholeRumorLeaked {
        /// The receiving process.
        process: ProcessId,
        /// The leaked rumor.
        rid: CongosRumorId,
    },
    /// A delivery fired at a non-destination process.
    WrongDelivery {
        /// The delivering process.
        process: ProcessId,
        /// The rumor.
        rid: CongosRumorId,
    },
    /// A delivered value did not match the injected data.
    CorruptDelivery {
        /// The delivering process.
        process: ProcessId,
        /// The rumor.
        rid: CongosRumorId,
    },
}

/// What a caller injected under one workload id: the ground truth a
/// delivery of that wid is checked against.
#[derive(Clone, Debug)]
struct Injected {
    dest: IdSet,
    data: Vec<u8>,
}

/// Summary of an audited execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Violations found (empty = the execution was confidential & correct).
    pub violations: Vec<Violation>,
    /// Distinct rumors observed.
    pub rumors: usize,
    /// Fragment receipts recorded.
    pub fragment_receipts: u64,
    /// Deliveries checked.
    pub deliveries: u64,
}

/// The auditor, an [`Observer`] of a CONGOS run. Over an engine it sees
/// every process; over one `NodeDriver` (a TCP node) it sees that node's
/// deliveries, injections and outputs, and checks that node:
///
/// ```no_run
/// # use congos::{CongosNode, ConfidentialityAuditor};
/// # use congos_sim::{Engine, EngineConfig, NullAdversary};
/// let mut engine = Engine::<CongosNode>::new(EngineConfig::new(8));
/// let mut audit = ConfidentialityAuditor::new(8);
/// engine.run_observed(100, &mut NullAdversary, &mut audit);
/// audit.assert_clean();
/// ```
#[derive(Clone, Debug)]
pub struct ConfidentialityAuditor {
    n: usize,
    /// Per rumor id: the destination set its own fragments and `Shoot`s
    /// carry. A process is entitled to a rumor iff it is the rumor's
    /// source or in this set.
    rumors: HashMap<CongosRumorId, IdSet>,
    /// Per workload id: what was injected. The node may start several
    /// rumors per injection (destination hiding) or a decoy alongside it
    /// (cover traffic), so injections are keyed by the id the caller chose,
    /// never by a guessed rumor id.
    injected: HashMap<u64, Injected>,
    /// Per process: fragments ever held, as `(rid, partition, group)`.
    holdings: Vec<HashSet<(CongosRumorId, u16, u8)>>,
    /// Registered coalitions of curious processes.
    coalitions: Vec<IdSet>,
    /// Fragment count `k` per (rumor, partition) split.
    split_k: HashMap<(CongosRumorId, u16), u8>,
    /// Expiry index bounding `holdings` / `split_k`: every retained entry is
    /// filed at its split's admissibility horizon `birth + 2·dline`.
    expiry: ExpiryRing<(ProcessId, CongosRumorId, u16, u8)>,
    /// Latest round observed; drives eviction.
    now: Round,
    report: AuditReport,
}

impl ConfidentialityAuditor {
    /// Creates an auditor for `n` processes, with no coalitions.
    pub fn new(n: usize) -> Self {
        ConfidentialityAuditor {
            n,
            rumors: HashMap::new(),
            injected: HashMap::new(),
            holdings: vec![HashSet::new(); n],
            coalitions: Vec::new(),
            split_k: HashMap::new(),
            expiry: ExpiryRing::new(128),
            now: Round(0),
            report: AuditReport::default(),
        }
    }

    /// Registers a coalition: its members pool everything they ever learn.
    /// (Members that are in a rumor's destination set legitimately know the
    /// rumor; coalitions are only reported for rumors none of their members
    /// may learn.)
    pub fn add_coalition(&mut self, members: IdSet) {
        assert_eq!(members.universe(), self.n, "coalition universe mismatch");
        self.coalitions.push(members);
    }

    /// The audit findings so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// Panics with a description of the first violation, if any.
    ///
    /// # Panics
    ///
    /// Panics if the audited execution violated confidentiality or delivery
    /// integrity.
    pub fn assert_clean(&self) {
        assert!(
            self.report.violations.is_empty(),
            "confidentiality audit failed: {:?} (of {} violations)",
            self.report.violations[0],
            self.report.violations.len()
        );
    }

    /// Files `rid`'s destination set on first sight.
    fn note_rumor(&mut self, rid: CongosRumorId, dest: &IdSet) {
        self.rumors.entry(rid).or_insert_with(|| dest.clone());
        self.report.rumors = self.rumors.len();
    }

    fn record_fragment(&mut self, holder: ProcessId, f: &Fragment) {
        // Nothing in the protocol circulates a fragment past its split's
        // admissibility horizon, and the node drops one that arrives later
        // (a forged or replayed message). Such a receipt is skipped here
        // too: the holdings it could complete were already evicted, so
        // every verdict the full history would give has been given.
        let expire = f.rid.birth.as_u64() + 2 * f.dline;
        if self.now.as_u64() > expire {
            return;
        }
        self.report.fragment_receipts += 1;
        self.note_rumor(f.rid, &f.dest);
        self.split_k.insert((f.rid, f.partition), f.k);
        let newly = self.holdings[holder.as_usize()].insert((f.rid, f.partition, f.group));
        if !newly {
            return;
        }
        self.expiry
            .insert(expire, (holder, f.rid, f.partition, f.group));
        self.check_process(holder, f.rid, f.partition);
        // Coalition pooling: check every coalition containing the holder.
        for ci in 0..self.coalitions.len() {
            if self.coalitions[ci].contains(holder) {
                self.check_coalition(ci, f.rid, f.partition);
            }
        }
    }

    fn record_whole(&mut self, holder: ProcessId, rid: CongosRumorId, dest: &IdSet) {
        self.note_rumor(rid, dest);
        if !self.is_entitled(holder, rid) {
            self.report.violations.push(Violation::WholeRumorLeaked {
                process: holder,
                rid,
            });
        }
    }

    fn is_entitled(&self, p: ProcessId, rid: CongosRumorId) -> bool {
        rid.source == p || self.rumors.get(&rid).is_some_and(|d| d.contains(p))
    }

    fn check_process(&mut self, p: ProcessId, rid: CongosRumorId, partition: u16) {
        if self.is_entitled(p, rid) {
            return;
        }
        let Some(&k) = self.split_k.get(&(rid, partition)) else {
            return;
        };
        let held = (0..k).all(|g| self.holdings[p.as_usize()].contains(&(rid, partition, g)));
        if held {
            self.report
                .violations
                .push(Violation::NonDestinationReconstructed {
                    process: p,
                    rid,
                    partition,
                });
        }
    }

    fn check_coalition(&mut self, ci: usize, rid: CongosRumorId, partition: u16) {
        let coalition = &self.coalitions[ci];
        // A coalition containing an entitled member knows the rumor
        // legitimately.
        if coalition.iter().any(|p| self.is_entitled(p, rid)) {
            return;
        }
        let Some(&k) = self.split_k.get(&(rid, partition)) else {
            return;
        };
        let pooled_all = (0..k).all(|g| {
            coalition
                .iter()
                .any(|p| self.holdings[p.as_usize()].contains(&(rid, partition, g)))
        });
        if pooled_all {
            self.report
                .violations
                .push(Violation::CoalitionReconstructed {
                    coalition: ci,
                    rid,
                    partition,
                });
        }
    }

    /// Drops holdings whose split's admissibility horizon has passed.
    /// `record_fragment` skips every later receipt of such a split, so every
    /// confidentiality verdict the full history would have produced has
    /// already been produced.
    fn evict_expired(&mut self) {
        let (holdings, split_k) = (&mut self.holdings, &mut self.split_k);
        self.expiry
            .drain_expired(self.now.as_u64(), |(p, rid, partition, group)| {
                holdings[p.as_usize()].remove(&(rid, partition, group));
                split_k.remove(&(rid, partition));
            });
    }
}

impl Observer<CongosNode> for ConfidentialityAuditor {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, CongosMsg>) {
        self.now = self.now.max(env.round);
        if let CongosMsg::Shoot { rumor, rid, .. } = env.payload {
            // Note: the shoot payload is NOT recorded as ground truth — with
            // the Section 7 extensions payloads are framed with a marker
            // byte, and only `on_inject` sees the caller's original bytes.
            self.record_whole(env.dst, *rid, &rumor.dest);
        }
        for f in env.payload.fragments() {
            self.record_fragment(env.dst, f);
        }
    }

    fn on_inject(&mut self, _round: Round, _process: ProcessId, input: &CongosInput) {
        let dest = IdSet::from_iter(self.n, input.dest.iter().copied());
        let data = input.data.clone();
        self.injected.insert(input.wid, Injected { dest, data });
    }

    /// Checks a delivery against what was injected under its wid. A node
    /// watched alone (over TCP) sees only its own injections; there a
    /// delivery of another node's rumor is checked against the
    /// destinations its fragments or `Shoot` carried.
    fn on_output(&mut self, rec: &OutputRecord<DeliveredRumor>) {
        self.report.deliveries += 1;
        let (process, rid) = (rec.process, rec.value.rid);
        let (entitled, intact) = match self.injected.get(&rec.value.wid) {
            Some(truth) => (truth.dest.contains(process), truth.data == rec.value.data),
            None => match self.rumors.get(&rid) {
                Some(dest) => (dest.contains(process), true),
                // A delivery of a rumor never injected nor seen: corrupt
                // by definition.
                None => (true, false),
            },
        };
        if !entitled {
            self.report
                .violations
                .push(Violation::WrongDelivery { process, rid });
        }
        if !intact {
            self.report
                .violations
                .push(Violation::CorruptDelivery { process, rid });
        }
    }

    fn on_round_end(&mut self, round: Round) {
        self.now = self.now.max(round);
        self.evict_expired();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::Round;

    fn rid(src: usize, birth: u64) -> CongosRumorId {
        CongosRumorId {
            source: ProcessId::new(src),
            birth: Round(birth),
            seq: 0,
        }
    }

    fn frag(n: usize, src: usize, partition: u16, group: u8, k: u8, dest: &[usize]) -> Fragment {
        Fragment {
            rid: rid(src, 0),
            wid: 0,
            partition,
            group,
            k,
            bytes: vec![1].into(),
            dest: IdSet::from_iter(n, dest.iter().map(|i| ProcessId::new(*i))).into(),
            dline: 64,
        }
    }

    #[test]
    fn partial_fragments_are_fine() {
        let mut a = ConfidentialityAuditor::new(8);
        a.record_fragment(ProcessId::new(5), &frag(8, 0, 0, 0, 2, &[1]));
        assert!(a.report().violations.is_empty());
        // Same rumor, *different partition*: still fine — independent pads.
        a.record_fragment(ProcessId::new(5), &frag(8, 0, 1, 1, 2, &[1]));
        assert!(a.report().violations.is_empty());
    }

    #[test]
    fn completing_a_split_outside_dest_is_a_violation() {
        let mut a = ConfidentialityAuditor::new(8);
        a.record_fragment(ProcessId::new(5), &frag(8, 0, 0, 0, 2, &[1]));
        a.record_fragment(ProcessId::new(5), &frag(8, 0, 0, 1, 2, &[1]));
        assert_eq!(a.report().violations.len(), 1);
        assert!(matches!(
            a.report().violations[0],
            Violation::NonDestinationReconstructed { partition: 0, .. }
        ));
    }

    #[test]
    fn destinations_and_source_may_complete_splits() {
        let mut a = ConfidentialityAuditor::new(8);
        // p1 is a destination.
        a.record_fragment(ProcessId::new(1), &frag(8, 0, 0, 0, 2, &[1]));
        a.record_fragment(ProcessId::new(1), &frag(8, 0, 0, 1, 2, &[1]));
        // p0 is the source.
        a.record_fragment(ProcessId::new(0), &frag(8, 0, 0, 0, 2, &[1]));
        a.record_fragment(ProcessId::new(0), &frag(8, 0, 0, 1, 2, &[1]));
        a.assert_clean();
    }

    #[test]
    fn coalition_pooling_is_detected() {
        let mut a = ConfidentialityAuditor::new(8);
        a.add_coalition(IdSet::from_iter(8, [ProcessId::new(5), ProcessId::new(6)]));
        a.record_fragment(ProcessId::new(5), &frag(8, 0, 0, 0, 3, &[1]));
        a.record_fragment(ProcessId::new(6), &frag(8, 0, 0, 1, 3, &[1]));
        assert!(a.report().violations.is_empty(), "2 of 3 fragments pooled");
        a.record_fragment(ProcessId::new(6), &frag(8, 0, 0, 2, 3, &[1]));
        assert_eq!(a.report().violations.len(), 1);
        assert!(matches!(
            a.report().violations[0],
            Violation::CoalitionReconstructed { coalition: 0, .. }
        ));
    }

    #[test]
    fn coalition_with_entitled_member_is_legitimate() {
        let mut a = ConfidentialityAuditor::new(8);
        // p1 is in the destination set and in the coalition.
        a.add_coalition(IdSet::from_iter(8, [ProcessId::new(1), ProcessId::new(6)]));
        a.record_fragment(ProcessId::new(1), &frag(8, 0, 0, 0, 2, &[1]));
        a.record_fragment(ProcessId::new(6), &frag(8, 0, 0, 1, 2, &[1]));
        a.assert_clean();
    }

    #[test]
    fn whole_rumor_to_non_destination_is_a_leak() {
        let mut a = ConfidentialityAuditor::new(4);
        let dest = IdSet::from_iter(4, [ProcessId::new(1)]);
        a.record_whole(ProcessId::new(2), rid(0, 0), &dest);
        assert_eq!(a.report().violations.len(), 1);
        assert!(matches!(
            a.report().violations[0],
            Violation::WholeRumorLeaked { .. }
        ));
    }

    #[test]
    fn a_fragment_past_its_horizon_is_skipped() {
        let mut a = ConfidentialityAuditor::new(8);
        let mut late = frag(8, 0, 0, 0, 1, &[1]);
        late.dline = 32;
        let payload = CongosMsg::Partials {
            dline: 32,
            ell: 0,
            fragments: vec![late],
        };
        // Born at round 0, horizon 64: a forged or replayed copy at round
        // 1000 completes a split for p5, which is not entitled to it.
        let env = EnvelopeRef {
            src: ProcessId::new(3),
            dst: ProcessId::new(5),
            round: Round(1000),
            tag: payload.tag(),
            payload: &payload,
        };
        Observer::<CongosNode>::on_deliver(&mut a, env);
        assert_eq!(*a.report(), AuditReport::default(), "nothing recorded");
    }

    #[test]
    #[should_panic(expected = "confidentiality audit failed")]
    fn assert_clean_panics_on_violation() {
        let mut a = ConfidentialityAuditor::new(4);
        let dest = IdSet::from_iter(4, [ProcessId::new(1)]);
        a.record_whole(ProcessId::new(2), rid(0, 0), &dest);
        a.assert_clean();
    }
}

#[cfg(test)]
mod output_tests {
    use super::*;
    use crate::rumor::{DeliveredRumor, DeliveryPath};
    use congos_sim::{OutputRecord, Round};

    fn rid(src: usize) -> CongosRumorId {
        CongosRumorId {
            source: ProcessId::new(src),
            birth: Round(0),
            seq: 0,
        }
    }

    fn fragment(rid: CongosRumorId, wid: u64, dest: usize) -> Fragment {
        Fragment {
            rid,
            wid,
            partition: 0,
            group: 0,
            k: 2,
            bytes: vec![1].into(),
            dest: IdSet::from_iter(4, [ProcessId::new(dest)]).into(),
            dline: 64,
        }
    }

    fn inject(a: &mut ConfidentialityAuditor, src: usize, data: &[u8], dest: &[usize]) {
        inject_wid(a, 0, src, data, dest);
    }

    fn inject_wid(
        a: &mut ConfidentialityAuditor,
        wid: u64,
        src: usize,
        data: &[u8],
        dest: &[usize],
    ) {
        let input = CongosInput {
            wid,
            data: data.to_vec(),
            deadline: 64,
            dest: dest.iter().map(|i| ProcessId::new(*i)).collect(),
        };
        Observer::<crate::node::CongosNode>::on_inject(a, Round(0), ProcessId::new(src), &input);
    }

    fn output(a: &mut ConfidentialityAuditor, at: usize, src: usize, data: &[u8]) {
        let rec = OutputRecord {
            round: Round(5),
            process: ProcessId::new(at),
            value: DeliveredRumor {
                wid: 0,
                rid: rid(src),
                data: data.to_vec(),
                via: DeliveryPath::Fragments,
            },
        };
        Observer::<crate::node::CongosNode>::on_output(a, &rec);
    }

    #[test]
    fn correct_delivery_is_clean() {
        let mut a = ConfidentialityAuditor::new(4);
        inject(&mut a, 0, b"data", &[2]);
        output(&mut a, 2, 0, b"data");
        a.assert_clean();
        assert_eq!(a.report().deliveries, 1);
    }

    #[test]
    fn wrong_destination_is_flagged() {
        let mut a = ConfidentialityAuditor::new(4);
        inject(&mut a, 0, b"data", &[2]);
        output(&mut a, 3, 0, b"data");
        assert!(matches!(
            a.report().violations[0],
            Violation::WrongDelivery { .. }
        ));
    }

    #[test]
    fn corrupted_payload_is_flagged() {
        let mut a = ConfidentialityAuditor::new(4);
        inject(&mut a, 0, b"data", &[2]);
        output(&mut a, 2, 0, b"wrong");
        assert!(matches!(
            a.report().violations[0],
            Violation::CorruptDelivery { .. }
        ));
    }

    #[test]
    fn delivery_of_unknown_rumor_is_corrupt() {
        let mut a = ConfidentialityAuditor::new(4);
        output(&mut a, 2, 0, b"ghost");
        assert!(matches!(
            a.report().violations[0],
            Violation::CorruptDelivery { .. }
        ));
    }

    /// A source that starts a cover-traffic decoy and a real rumor in one
    /// round gives the decoy seq 0 and the real rumor seq 1: the real
    /// rumor's delivery must still be checked against the injected data.
    #[test]
    fn a_corrupt_delivery_beside_a_same_round_decoy_is_flagged() {
        let mut a = ConfidentialityAuditor::new(4);
        let decoy = rid(0);
        let real = CongosRumorId { seq: 1, ..decoy };
        a.record_fragment(ProcessId::new(3), &fragment(decoy, u64::MAX, 3));
        inject_wid(&mut a, 7, 0, b"data", &[2]);
        a.record_fragment(ProcessId::new(2), &fragment(real, 7, 2));
        let rec = OutputRecord {
            round: Round(5),
            process: ProcessId::new(2),
            value: DeliveredRumor {
                wid: 7,
                rid: real,
                data: b"wrong".to_vec(),
                via: DeliveryPath::Fragments,
            },
        };
        Observer::<crate::node::CongosNode>::on_output(&mut a, &rec);
        assert_eq!(
            a.report().violations,
            [Violation::CorruptDelivery {
                process: ProcessId::new(2),
                rid: real,
            }]
        );
    }
}
