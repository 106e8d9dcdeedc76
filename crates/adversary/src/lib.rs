//! # congos-adversary — CRRI adversary strategies and workloads
//!
//! The paper's adversary controls three things at once: **C**rashes,
//! **R**estarts and **R**umor **I**njection (hence *CRRI*). This crate
//! factors those into two composable plans:
//!
//! * a [`FailurePlan`] decides crashes/restarts — from benign
//!   ([`NoFailures`]) through random churn to the adaptive attacks the paper
//!   defends against ([`ProxyKiller`] crashes a process the instant it is
//!   asked to act as a proxy; [`GroupAnnihilator`] wipes out an entire side
//!   of a partition);
//! * an [`InjectionPlan`] decides which rumors appear where and when —
//!   including the exact random-destination-set workload used in the proofs
//!   of Theorems 1 and 12 ([`Theorem1Workload`]).
//!
//! [`CrriAdversary`] glues a failure plan and an injection plan into a
//! [`congos_sim::Adversary`] for any protocol whose input can be built from a
//! [`RumorSpec`].
//!
//! Orthogonal to CRRI, the [`predict`] module family implements a *passive
//! observing coalition* — a source-prediction adversary that records
//! delivery metadata through an RNG-neutral engine tap and runs
//! first-contact / maximum-likelihood source estimators over it (the E13
//! anonymity experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collusion;
pub mod failures;
pub mod plan;
pub mod predict;
pub mod workload;

pub use collusion::pick_colluders;
pub use predict::{
    first_contact_posterior, AttackScore, CoalitionSpec, CoalitionTap, EstimatorCtx, MlEstimator,
    Sighting, SightingLog,
};
pub use failures::{Eclipse, GroupAnnihilator, NoFailures, ProxyKiller, RandomChurn, RollingWaves, ScheduledChurn};
pub use plan::{CrriAdversary, FailurePlan, InjectionPlan};
pub use workload::{
    InjectionLogEntry, NoInjections, OneShot, PoissonWorkload, RumorSpec,
    StableGroupWorkload, Theorem1Workload,
};
