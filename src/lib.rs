//! # confidential-gossip
//!
//! A production-quality Rust implementation of **CONGOS** — the
//! confidential continuous-gossip algorithm of Georgiou, Gilbert & Kowalski
//! (*Confidential Gossip*, ICDCS 2011 / Distributed Computing) — together
//! with its substrate, baselines, adversaries, experiment harness and
//! deployment runtimes. This crate is the facade: it re-exports every
//! workspace crate under one roof.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `congos-sim` | synchronous-round CRRI-model engine (sequential and parallel backends), metrics |
//! | [`adversary`] | `congos-adversary` | crash/restart strategies and rumor workloads |
//! | [`gossip`] | `congos-gossip` | the continuous-gossip substrate (randomized + expander modes) |
//! | [`congos`] | `congos` | **the paper's algorithm**: splitting, partitions, Proxy, GroupDistribution, auditor, extensions |
//! | [`baselines`] | `congos-baselines` | direct / strongly-confidential / epidemic / crypto comparators |
//! | [`harness`] | `congos-harness` | experiments E1–E15 reproducing the paper's theorems; `Cluster`, the localhost-TCP cluster launcher, and the `congos-node` process binary |
//! | [`net`] | `congos-net` | the TCP transport: binary wire codec, `poll(2)` loop, `TcpTransport` |
//!
//! ## Sixty seconds to a confidential rumor
//!
//! ```
//! use confidential_gossip::adversary::{CrriAdversary, NoFailures, OneShot, RumorSpec};
//! use confidential_gossip::congos::{ConfidentialityAuditor, CongosNode};
//! use confidential_gossip::sim::{Engine, EngineConfig, ProcessId, Round};
//!
//! let n = 16;
//! let dest = vec![ProcessId::new(4), ProcessId::new(9)];
//! let rumor = RumorSpec::new(0, b"for the committee only".to_vec(), 64, dest.clone());
//! let mut adv = CrriAdversary::new(
//!     NoFailures,
//!     OneShot::new(Round(0), vec![(ProcessId::new(0), rumor)]),
//! );
//! let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(7));
//! let mut audit = ConfidentialityAuditor::new(n);
//! engine.run_observed(65, &mut adv, &mut audit);
//!
//! // Both recipients — and only they — reassembled the rumor, on time,
//! // and the audit verified nobody else ever could have.
//! let receivers: Vec<ProcessId> = engine.outputs().iter().map(|o| o.process).collect();
//! assert_eq!(receivers.len(), 2);
//! assert!(dest.iter().all(|d| receivers.contains(d)));
//! assert!(engine.outputs().iter().all(|o| o.round <= Round(64)));
//! audit.assert_clean();
//! ```
//!
//! See the repository's `README.md`, `DESIGN.md`, `PAPER_MAPPING.md` and
//! `EXPERIMENTS.md` for the architecture, the paper↔code index, and the
//! measured reproduction of every theorem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod testkit;

pub use congos;
pub use congos_adversary as adversary;
pub use congos_baselines as baselines;
pub use congos_gossip as gossip;
pub use congos_harness as harness;
pub use congos_net as net;
pub use congos_sim as sim;
