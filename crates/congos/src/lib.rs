//! # congos — Confidential Continuous Gossip
//!
//! A production-quality implementation of **CONGOS**, the confidential
//! continuous-gossip algorithm of Georgiou, Gilbert & Kowalski
//! (*Confidential Gossip*, ICDCS 2011 / Distributed Computing). The problem:
//! rumors `ρ = ⟨z, d, D⟩` are injected continuously at arbitrary processes,
//! each must reach its destination set `ρ.D` within deadline `ρ.d`
//! (*Quality of Delivery*), and — the confidential part — **no process
//! outside `ρ.D` may ever learn `ρ.z`** (Definition 2), even though the
//! whole system collaborates in dissemination and an adaptive adversary
//! crashes and restarts processes at will.
//!
//! The algorithm reconciles collaboration with confidentiality by XOR
//! secret splitting ([`split`]): each rumor is split, independently per
//! partition, into fragments that individually carry zero information; each
//! fragment is confined to one group of a partition of the processes
//! ([`partition`]); groups spread their fragment internally with a filtered
//! continuous-gossip service, hand fragments across group boundaries
//! through sampled *proxies* (`Proxy[ℓ]`), and deliver fragments to final
//! destinations with `GroupDistribution[ℓ]` — which also publishes
//! *sanitized* hit-sets so sources can confirm delivery without content
//! ever crossing a group boundary. Unconfirmed rumors are "shot" directly
//! to their destinations as the deadline expires, making Quality of
//! Delivery hold with probability 1.
//!
//! Collusion (Section 6) is handled by the same machinery with `τ+1`-way
//! splits over `Θ(τ log n)` random partitions
//! ([`CongosConfig::collusion_tolerant`]).
//!
//! ## Quickstart
//!
//! ```
//! use congos::{CongosNode, CongosConfig};
//! use congos_adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
//! use congos_sim::{Engine, EngineConfig, ProcessId, Round};
//!
//! let n = 16;
//! let secret = b"the launch code".to_vec();
//! let dest = vec![ProcessId::new(3), ProcessId::new(8)];
//! let rumor = RumorSpec::new(0, secret.clone(), 64, dest.clone());
//! let mut adv = CrriAdversary::new(
//!     NoFailures,
//!     OneShot::new(Round(0), vec![(ProcessId::new(0), rumor)]),
//! );
//! let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(7));
//! engine.run(65, &mut adv);
//!
//! // Both destinations — and only destinations — learned the secret.
//! let receivers: Vec<ProcessId> =
//!     engine.outputs().iter().map(|o| o.process).collect();
//! assert_eq!(receivers.len(), 2);
//! assert!(dest.iter().all(|d| receivers.contains(d)));
//! assert!(engine.outputs().iter().all(|o| o.value.data == secret));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod messages;
pub mod node;
pub mod partition;
pub mod rumor;
pub mod services;
pub mod split;
pub mod wire;

pub use audit::{AuditReport, ConfidentialityAuditor};
pub use config::{CongosConfig, CoverTrafficConfig, PartitionScheme};
pub use messages::{
    CongosMsg, Fragment, GossipPayload, TAG_ALL_GOSSIP, TAG_GD, TAG_GROUP_GOSSIP, TAG_PROXY,
    TAG_SHOOT,
};
pub use node::{CongosNode, NodeStats};
pub use partition::{Partition, PartitionSet};
pub use rumor::{CongosInput, CongosRumorId, DeliveredRumor, DeliveryPath, Rumor};
pub use split::{FragStore, FragStoreStats};
