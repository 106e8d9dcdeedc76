//! Source-prediction adversaries: "who started this rumor?"
//!
//! CONGOS encrypts payloads, but a *passive observing coalition* never needs
//! to decrypt anything: it records which processes sent it messages, with
//! which service tag, in which round, and tries to infer a rumor's **source**
//! from timing alone. This module family implements that adversary and the
//! metrics of Bellet/Guerraoui/Hendrikx ("Who started this rumor? Quantifying
//! the natural differential privacy of gossip protocols", DISC 2020) and
//! Jin/Huang/Dai ("On the Privacy Guarantees of Gossip Protocols in General
//! Networks"):
//!
//! * [`observe`] — the coalition itself: [`CoalitionSpec`] picks a
//!   deterministic observer set, [`CoalitionTap`] records per-round
//!   `(observer, sender, tag, round)` [`Sighting`]s into a [`SightingLog`].
//!   The tap implements [`congos_sim::Observer`], so it consumes **no engine
//!   RNG** and cannot perturb an execution: golden trace digests are
//!   bit-identical with and without a tap attached.
//! * [`first_contact`] — the first-contact estimator: the earliest sender the
//!   coalition hears from (on rumor-bearing tags, after the injection round)
//!   is the suspect.
//! * [`ml`] — a maximum-likelihood estimator: a posterior over candidate
//!   sources scored by how well each candidate's BFS distances on the known
//!   [`congos_sim::Topology`] explain the observed first-sighting curve.
//! * [`metrics`] — identification-probability / top-k accounting under
//!   randomized tie-breaking, and the DP-style `ε` the papers use to compare
//!   protocols.
//!
//! Estimators are pure functions of a [`SightingLog`] plus public knowledge
//! (the topology spec, `n`, the injection round). They live here — outside
//! the engine — because the engine must stay adversary-agnostic: taps only
//! *observe* the delivery phase, and everything downstream is offline
//! analysis.

pub mod first_contact;
pub mod metrics;
pub mod ml;
pub mod observe;

pub use first_contact::first_contact_posterior;
pub use metrics::{argmax_credit, dp_epsilon, topk_credit, AttackScore};
pub use ml::MlEstimator;
pub use observe::{CoalitionSpec, CoalitionTap, Sighting, SightingLog};

use congos_sim::{ProcessId, Round};

/// Everything an estimator is allowed to look at: the coalition's sighting
/// log plus *public* knowledge about the execution.
///
/// `candidates` is the suspect pool — every process the coalition considers
/// a possible source (normally all non-coalition processes). `tags` names
/// the services the adversary treats as rumor-bearing (empty = all);
/// `injected_at` is the round the rumor entered the system, which the papers
/// assume is public (the adversary knows *when* the gossip started, not
/// *where*).
#[derive(Clone, Copy, Debug)]
pub struct EstimatorCtx<'a> {
    /// The coalition's recorded sightings.
    pub log: &'a SightingLog,
    /// Suspect pool, in ascending id order.
    pub candidates: &'a [ProcessId],
    /// The publicly known injection round.
    pub injected_at: Round,
    /// Rumor-bearing service tags (empty = consider every tag).
    pub tags: &'a [&'static str],
}
