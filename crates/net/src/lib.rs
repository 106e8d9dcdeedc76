//! # congos-net — a bulk-synchronous TCP runtime for CONGOS
//!
//! Runs real CONGOS nodes as OS threads or processes communicating over
//! **TCP sockets** with a length-prefixed hand-rolled binary wire format
//! (see [`codec`]) — the protocol logic from the `congos` crate, unchanged,
//! on an actual network stack. Rounds are bulk-synchronous supersteps: each
//! node sends its round's messages to its peers' sockets, follows with an
//! end-of-round marker, and blocks until it has received every peer's
//! marker before computing.
//!
//! The round loop itself lives in `congos_sim::transport` — a node here is
//! a [`congos_sim::transport::NodeDriver`] over a
//! [`transport::TcpTransport`], the same generic driver the simulator's
//! `MemTransport` path uses, so the two runtimes cannot drift apart.
//!
//! This backend is failure-free (an *adaptive* adversary must see a round's
//! outboxes before anything is delivered — definitionally a lock-step
//! construct); its purpose is deployment realism: the wire
//! types serialize, the rounds synchronize over sockets, and the
//! confidentiality properties don't depend on any simulator affordance.
//!
//! ```no_run
//! use congos_net::{NetConfig, run_cluster};
//! use congos_sim::ProcessId;
//!
//! let report = run_cluster(
//!     NetConfig::new(4, 18300).rounds(70).seed(7),
//!     vec![(0, ProcessId::new(0), congos::CongosInput {
//!         wid: 0,
//!         data: b"over real sockets".to_vec(),
//!         deadline: 64,
//!         dest: vec![ProcessId::new(2)],
//!     })],
//! ).expect("cluster run");
//! assert_eq!(report.deliveries.len(), 1);
//! ```

// `deny`, not `forbid`: `poll` carries the one sanctioned exception — the
// `poll(2)` call — under a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod poll;
pub mod runtime;
pub mod transport;

pub use codec::{decode_frame, encode_frame, WireFrame};
pub use runtime::{run_cluster, run_node_process, NetConfig, NetReport, NodeReport};
pub use transport::TcpTransport;
