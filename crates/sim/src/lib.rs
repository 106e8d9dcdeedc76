//! # congos-sim — a synchronous-round simulator for the CRRI model
//!
//! This crate implements the computation model of *Confidential Gossip*
//! (Georgiou, Gilbert, Kowalski; ICDCS 2011):
//!
//! * `n` synchronous processes with unique ids `0..n`, communicating over a
//!   reliable, fully connected, point-to-point network (the default; the
//!   [`topology`] module can replace it with a sparse or churning link
//!   layer, dropping envelopes whose edge is absent that round);
//! * a global clock (globally numbered rounds);
//! * in each round a process (i) sends point-to-point messages, (ii) receives
//!   the messages sent to it *in the same round*, and (iii) performs local
//!   computation;
//! * an adaptive **CRRI adversary** (Crash-and-Restart-Rumor-Injection) that,
//!   in each round — *after observing the random choices made in that round*
//!   (i.e. the outboxes) — crashes processes, restarts processes, and injects
//!   rumors;
//! * processes have **no durable storage**: a crash ends the process's
//!   incarnation, and a restarted process is reset to its default initial
//!   state, knowing only the algorithm, `[n]`, and the global clock.
//!
//! The engine is fully deterministic given a master seed, so every
//! probabilistic claim of the paper can be reproduced exactly.
//!
//! ```
//! use congos_sim::{Engine, EngineConfig, Protocol, Context, Inbox, Tag,
//!                  NullAdversary, ProcessId};
//!
//! /// A toy protocol: process 0 floods a token once; everyone else reports it.
//! struct Flood { has_token: bool, sent: bool }
//!
//! impl Protocol for Flood {
//!     type Msg = ();
//!     type Input = ();
//!     type Output = ();
//!     fn new(id: ProcessId, _n: usize, _seed: u64) -> Self {
//!         Flood { has_token: id.as_usize() == 0, sent: false }
//!     }
//!     fn send(&mut self, ctx: &mut Context<'_, Self>) {
//!         if self.has_token && !self.sent {
//!             for p in ctx.all_processes() {
//!                 ctx.send(p, (), Tag("flood"));
//!             }
//!             self.sent = true;
//!         }
//!     }
//!     fn receive(&mut self, ctx: &mut Context<'_, Self>,
//!                inbox: Inbox<'_, ()>, _input: Option<()>) {
//!         if !inbox.is_empty() && !self.has_token {
//!             self.has_token = true;
//!             ctx.output(());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::<Flood>::new(EngineConfig::new(8).seed(42));
//! engine.run(3, &mut NullAdversary);
//! assert_eq!(engine.outputs().len(), 7); // everyone but the source reported
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod idset;
pub mod liveness;
pub mod message;
pub mod metrics;
pub mod process;
pub mod rng;
pub mod topology;
pub mod transport;

pub use clock::{BlockClock, Round};
pub use engine::{
    Adversary, Context, CrashSpec, Engine, EngineBackend, EngineConfig, IncomingPolicy,
    NullAdversary, NullObserver, Observer, OutputRecord, Protocol, RoundDecision, RoundView,
    SentPolicy,
};
pub use idset::IdSet;
pub use liveness::{LivenessEvent, LivenessLog};
pub use message::{Envelope, EnvelopeRef, Inbox, OutboxColumns, OutboxMeta, OutboxView, Tag};
pub use metrics::{Metrics, RoundCounts};
pub use process::ProcessId;
pub use topology::{Topology, TopologySpec};
pub use transport::{run_local_cluster, MemTransport, NodeDriver, RoundTransport};
