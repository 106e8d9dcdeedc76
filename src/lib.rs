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
//! | [`sim`] | `congos-sim` | synchronous-round CRRI-model engine (sequential and parallel backends), metrics, tracing |
//! | [`adversary`] | `congos-adversary` | crash/restart strategies and rumor workloads |
//! | [`gossip`] | `congos-gossip` | the continuous-gossip substrate (randomized + expander modes) |
//! | [`congos`] | `congos` | **the paper's algorithm**: splitting, partitions, Proxy, GroupDistribution, auditor, extensions |
//! | [`baselines`] | `congos-baselines` | direct / strongly-confidential / epidemic / crypto comparators |
//! | [`harness`] | `congos-harness` | experiments E1–E14 reproducing the paper's theorems; `Cluster`, the localhost-TCP cluster launcher, and the `congos-node` process binary |
//! | [`net`] | `congos-net` | the TCP transport: binary wire codec, `poll(2)` loop, `TcpTransport` |
//!
//! ## Sixty seconds to a confidential rumor
//!
//! ```
//! use confidential_gossip::congos::oneshot::{share, OneshotRumor};
//! use confidential_gossip::sim::ProcessId;
//!
//! let report = share(
//!     16,   // processes
//!     7,    // seed
//!     &[OneshotRumor {
//!         data: b"for the committee only".to_vec(),
//!         source: ProcessId::new(0),
//!         dest: vec![ProcessId::new(4), ProcessId::new(9)],
//!         deadline: 64,
//!     }],
//! );
//! // Both recipients — and only they — reassembled the rumor, on time,
//! // and the built-in audit verified nobody else ever could have.
//! assert_eq!(report.deliveries.len(), 2);
//! assert!(report.deliveries.iter().all(|d| d.round <= 64));
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
