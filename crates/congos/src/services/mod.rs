//! The protocol's sub-services: `Proxy[ℓ]`, `GroupDistribution[ℓ]`, and the
//! per-deadline-class engine that coordinates them with the gossip
//! substrate.

pub(crate) mod class_engine;
pub(crate) mod expiry;
pub(crate) mod group_distribution;
pub(crate) mod proxy;

pub use class_engine::ClassStats;
