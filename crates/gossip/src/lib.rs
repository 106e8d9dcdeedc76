//! # congos-gossip — the Continuous Gossip substrate
//!
//! CONGOS (the confidential-gossip algorithm) consumes a non-confidential
//! *Continuous Gossip service* as a black box — the protocol of Georgiou,
//! Gilbert & Kowalski, *"Meeting the Deadline: On the Complexity of
//! Fault-Tolerant Continuous Gossip"* (reference \[13\] of the paper). The
//! black box guarantees exactly two things:
//!
//! 1. **Quality of Delivery with probability 1** — every admissible rumor
//!    (source continuously alive) reaches every continuously-alive member of
//!    its destination set by its deadline;
//! 2. **bounded per-round message complexity** —
//!    `O(n^{1+6/∛dmin} · polylog n)` where `dmin` is the shortest deadline
//!    of any active rumor.
//!
//! This crate provides a faithful randomized implementation of that
//! contract: epidemic push with a collaborator-scaled fanout
//! (`Θ(n^{γ/∛dmin} · log n / |collaborators|)` per collaborator per round),
//! acknowledgment tracking, and a deterministic direct-send fallback at the
//! deadline — which fires only when the epidemic phase failed to confirm
//! delivery, preserving property 1 deterministically while property 2 holds
//! with high probability. (The original \[13\] de-randomizes the epidemic
//! choices with explicit expander graphs; building those is outside the
//! scope of the confidential-gossip paper, which treats this service as a
//! black box. See DESIGN.md §2.3.)
//!
//! The service is an *embeddable component*: CONGOS instantiates `log n`
//! filtered copies (`GroupGossip[ℓ]`, one per partition side it belongs to)
//! plus one unfiltered copy (`AllGossip`) inside each process, multiplexing
//! their wire messages over the host protocol's message type. The *filter*
//! of the paper (Figure 11) is the [`membership`](GossipConfig) set: a
//! filtered instance never addresses — and never accepts — a process outside
//! its group, which is what makes the fragment-confinement argument of
//! Lemma 3 hold by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expander;
pub mod fanout;
pub mod rumor;
pub mod service;
pub mod standalone;

pub use expander::{expander_targets, GossipStrategy};
pub use fanout::{fanout, FanoutParams};
pub use rumor::{GossipRumor, RumorId};
pub use service::{ContinuousGossip, GossipCensus, GossipConfig, GossipWire, PushBatch};
pub use standalone::GossipNode;
