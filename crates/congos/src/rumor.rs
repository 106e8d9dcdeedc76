//! Application-level rumors: the triplet `ρ = ⟨z, d, D⟩` of the paper.

use congos_adversary::RumorSpec;
use congos_sim::clock::trim_deadline;
use congos_sim::{IdSet, ProcessId, Round};
use std::fmt;

/// The last round in which anything of a rumor born at `birth` with
/// `deadline` circulates: `birth + 2·dline`, where `dline` is `deadline`
/// trimmed to its class under `cap` ([`congos_sim::clock::deadline_cap`]
/// of `n`). The node keeps a rumor's reassembly and dedup state until then
/// and rejects whatever arrives later; the auditor keeps its per-rumor
/// entries as long. Trimming bounds `dline` by the cap, even for a corrupt
/// `deadline`; the caller has checked that `birth` is not in the future.
pub(crate) fn horizon(birth: Round, deadline: u64, cap: u64) -> Round {
    birth + 2 * trim_deadline(deadline, cap)
}

/// Identity of an injected rumor: source process, injection round, and a
/// round-local sequence number.
///
/// This is the paper's `counter` (Figure 8) made restart-safe: processes
/// have no durable storage, so a plain per-process counter would collide
/// across incarnations; a crash and a restart cannot share a round, so the
/// `(source, birth)` pair disambiguates. The id is metadata the protocol
/// deliberately shares (it appears in sanitized hit-sets); the paper notes
/// it could be replaced by a pseudorandom identifier to leak less.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CongosRumorId {
    /// The process the rumor was injected at.
    pub source: ProcessId,
    /// Injection round.
    pub birth: Round,
    /// Sequence among the rumors this source starts in `birth`, so that
    /// their ids differ: one injection per round can start several
    /// (`hide_destinations`' n rumors take 0…n−1; a cover-traffic decoy of
    /// the send phase takes 0, the compute phase's real injection 1).
    pub seq: u32,
}

impl fmt::Debug for CongosRumorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ρ({}@{}#{})", self.source, self.birth, self.seq)
    }
}

/// A rumor as handled by CONGOS: confidential payload, deadline duration,
/// and destination set, plus the workload id used by experiments to
/// correlate injections with deliveries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rumor {
    /// Workload-assigned id (experiment bookkeeping, not protocol state).
    pub wid: u64,
    /// The confidential data `ρ.z`.
    pub data: Vec<u8>,
    /// Deadline duration `ρ.d` in rounds.
    pub deadline: u64,
    /// Destination set `ρ.D`.
    pub dest: IdSet,
}

/// Input injected at a [`CongosNode`](crate::CongosNode).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CongosInput {
    /// Workload id.
    pub wid: u64,
    /// Confidential payload.
    pub data: Vec<u8>,
    /// Deadline duration in rounds.
    pub deadline: u64,
    /// Destination processes.
    pub dest: Vec<ProcessId>,
}

impl From<RumorSpec> for CongosInput {
    fn from(spec: RumorSpec) -> Self {
        CongosInput {
            wid: spec.id,
            data: spec.data,
            deadline: spec.deadline,
            dest: spec.dest,
        }
    }
}

/// A rumor delivered (reassembled) at a destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveredRumor {
    /// Workload id of the rumor.
    pub wid: u64,
    /// Protocol identity of the rumor.
    pub rid: CongosRumorId,
    /// The reconstructed data `ρ.z`.
    pub data: Vec<u8>,
    /// How the rumor arrived (pipeline reassembly or fallback).
    pub via: DeliveryPath,
}

/// How a rumor reached a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPath {
    /// Reassembled from fragments delivered by the CONGOS pipeline.
    Fragments,
    /// Received whole via the source's deadline fallback ("shoot").
    Fallback,
    /// The source itself is a destination (local delivery at injection).
    Local,
    /// Sent directly because the deadline was too short for the pipeline
    /// (or `τ ≥ n/log²n` in the collusion-tolerant variant).
    Direct,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rumor_id_debug() {
        let id = CongosRumorId {
            source: ProcessId::new(2),
            birth: Round(7),
            seq: 0,
        };
        assert_eq!(format!("{id:?}"), "ρ(p2@r7#0)");
    }

    #[test]
    fn input_from_spec() {
        let spec = RumorSpec::new(5, vec![1, 2], 64, vec![ProcessId::new(1)]);
        let input = CongosInput::from(spec);
        assert_eq!(input.wid, 5);
        assert_eq!(input.deadline, 64);
        assert_eq!(input.dest, vec![ProcessId::new(1)]);
    }
}
