//! Shared fixtures for the repository-level differential test suites.
//!
//! The integration tests under `tests/` (and any future suite) compare
//! *complete executions*: ordered outputs, per-round per-tag message
//! counts, audit verdicts and the rendered trace. This module centralizes
//! that machinery — the [`Fingerprint`] type, the topology-parameterized
//! [`congos_fingerprint`] runner, the [`fnv1a`] trace digest and the pinned
//! [`GOLDEN_TRACE_DIGEST`] — so every suite asserts against the same
//! fixture instead of each carrying a private copy that can drift.

use std::fmt::{self, Write as _};

use congos::{
    AuditReport, ConfidentialityAuditor, CongosInput, CongosMsg, CongosNode, DeliveredRumor,
};
use congos_adversary::predict::{CoalitionTap, SightingLog};
use congos_adversary::{CrriAdversary, FailurePlan, PoissonWorkload};
use congos_sim::engine::OutputRecord;
use congos_sim::{
    Engine, EngineBackend, EngineConfig, EnvelopeRef, Observer, ProcessId, Round, TopologySpec,
};

/// Universe size used by every fingerprint run (matches the seed suite).
pub const N: usize = 16;
/// Rounds per fingerprint run.
pub const ROUNDS: u64 = 96;
/// Rumor deadline used by the fingerprint workload.
pub const DEADLINE: u64 = 48;

/// FNV-1a over a rendered trace: a stable 64-bit digest of the execution.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pinned [`fnv1a`] digest of the seed-42, `NoFailures`, complete-topology
/// trace at [`N`]/[`ROUNDS`]/[`DEADLINE`]. Every backend and the
/// `Complete` topology must reproduce it bit-for-bit: a moved value means
/// semantic drift in the engine, the protocol, or the topology layer's
/// supposedly invisible default path.
pub const GOLDEN_TRACE_DIGEST: u64 = 0x8216_e22b_d38c_0d66;

/// Renders a run's events as a per-round timeline, one line per event as it
/// arrives: a `rN:` header whenever the round changes, then the indented
/// event. [`GOLDEN_TRACE_DIGEST`] is the [`fnv1a`] of this text.
#[derive(Default)]
struct Timeline {
    text: String,
    round: Option<Round>,
}

impl Timeline {
    fn line(&mut self, round: Round, event: fmt::Arguments<'_>) {
        if self.round != Some(round) {
            self.round = Some(round);
            let _ = writeln!(self.text, "{round}:");
        }
        let _ = writeln!(self.text, "  {event}");
    }
}

impl Observer<CongosNode> for Timeline {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, CongosMsg>) {
        let (src, dst, tag) = (env.src, env.dst, env.tag);
        self.line(env.round, format_args!("{src} → {dst}  {tag:?}"));
    }

    fn on_inject(&mut self, round: Round, process: ProcessId, _input: &CongosInput) {
        self.line(round, format_args!("inject @ {process}"));
    }

    fn on_output(&mut self, rec: &OutputRecord<DeliveredRumor>) {
        self.line(rec.round, format_args!("output @ {}", rec.process));
    }

    fn on_crash(&mut self, round: Round, process: ProcessId, _retired: &CongosNode) {
        self.line(round, format_args!("✗ crash {process}"));
    }

    fn on_restart(&mut self, round: Round, process: ProcessId) {
        self.line(round, format_args!("↻ restart {process}"));
    }
}

/// Everything observable about one run, for exact comparison.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    /// Ordered output records, exactly as the engine emitted them.
    pub outputs: Vec<OutputRecord<DeliveredRumor>>,
    /// `per_tag[t]` — round `t`'s (tag, count) pairs.
    pub per_tag: Vec<Vec<(&'static str, u64)>>,
    /// The confidentiality auditor's verdict.
    pub audit: AuditReport,
    /// The rendered execution trace.
    pub trace: String,
}

impl Fingerprint {
    /// The ordered `(rumor id, destination)` delivery set.
    pub fn delivery_set(&self) -> Vec<(u64, usize)> {
        self.outputs
            .iter()
            .map(|o| (o.value.wid, o.process.as_usize()))
            .collect()
    }
}

/// Runs CONGOS on the given backend, topology, seed and failure plan and
/// returns the full [`Fingerprint`] (audited and traced throughout).
///
/// The workload is the suite's fixed Poisson stream keyed by `seed`, so two
/// calls differing only in `backend` see byte-identical inputs — any
/// fingerprint difference is the engine's fault, not the workload's.
pub fn congos_fingerprint<F: FailurePlan>(
    backend: EngineBackend,
    topology: TopologySpec,
    seed: u64,
    failures: F,
) -> Fingerprint {
    congos_fingerprint_tapped(backend, topology, seed, failures, &[]).0
}

/// [`congos_fingerprint`] with a passive observing coalition tapped into
/// the delivery phase (`members` empty = no tap, plain fingerprint).
///
/// Returns the fingerprint *and* the coalition's sighting log. Observers
/// run outside the engine's RNG streams, so the fingerprint — trace digest
/// included — must be bit-identical whether or not a tap listens; the
/// differential suite pins exactly that.
pub fn congos_fingerprint_tapped<F: FailurePlan>(
    backend: EngineBackend,
    topology: TopologySpec,
    seed: u64,
    failures: F,
    members: &[ProcessId],
) -> (Fingerprint, SightingLog) {
    let workload =
        PoissonWorkload::new(0.05, 3, DEADLINE, seed ^ 0xD1FF).until(Round(ROUNDS - DEADLINE));
    let mut adv = CrriAdversary::new(failures, workload);
    let mut engine = Engine::<CongosNode>::new(
        EngineConfig::new(N)
            .seed(seed)
            .topology(topology)
            .backend(backend),
    );
    let mut obs = (
        (ConfidentialityAuditor::new(N), Timeline::default()),
        CoalitionTap::new(N, members),
    );
    engine.run_observed(ROUNDS, &mut adv, &mut obs);
    let ((audit, timeline), tap) = obs;
    let per_tag = (0..ROUNDS)
        .map(|t| engine.metrics().round(t).iter().collect())
        .collect();
    let fp = Fingerprint {
        per_tag,
        audit: audit.report().clone(),
        trace: timeline.text,
        outputs: engine.into_outputs(),
    };
    (fp, tap.into_log())
}
