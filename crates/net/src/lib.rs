//! # congos-net — the TCP transport for CONGOS
//!
//! Carries real CONGOS nodes over **TCP sockets** with a length-prefixed
//! hand-rolled binary wire format (see [`codec`]) — the protocol logic from
//! the `congos` crate, unchanged, on an actual network stack. Rounds are
//! bulk-synchronous supersteps: each node sends its round's messages to its
//! peers' sockets, follows with an end-of-round marker, and waits in one
//! `poll(2)` loop until it has received every peer's marker before
//! computing.
//!
//! The round loop itself lives in `congos_sim::transport` — a node here is
//! a [`congos_sim::transport::NodeDriver`] over a
//! [`transport::TcpTransport`], the same generic driver the simulator's
//! `MemTransport` path uses, so the two runtimes cannot drift apart.
//! Launching a whole cluster — binding its listeners, splitting the
//! schedule, merging the reports, as threads or as `congos-node` processes
//! — is `congos_harness::Cluster`.
//!
//! This backend is failure-free (an *adaptive* adversary must see a round's
//! outboxes before anything is delivered — definitionally a lock-step
//! construct); its purpose is deployment realism: the wire
//! types serialize, the rounds synchronize over sockets, and the
//! confidentiality properties don't depend on any simulator affordance.
//!
//! ```no_run
//! use std::net::TcpListener;
//!
//! use congos::{CongosInput, CongosNode};
//! use congos_net::TcpTransport;
//! use congos_sim::transport::NodeDriver;
//! use congos_sim::{NullObserver, ProcessId, TopologySpec};
//!
//! // Node 0 of a two-node cluster on ports 18300..18302; node 1 runs the
//! // same lines with its own id and port, and no injection.
//! let me = ProcessId::new(0);
//! let listener = TcpListener::bind(("127.0.0.1", 18300))?;
//! let mut transport =
//!     TcpTransport::with_listener(me, 2, 18300, listener, TopologySpec::Complete, 7)?;
//! let mut node = NodeDriver::<CongosNode>::new(me, 2, 7);
//! let rumor = CongosInput {
//!     wid: 0,
//!     data: b"over real sockets".to_vec(),
//!     deadline: 64,
//!     dest: vec![ProcessId::new(1)],
//! };
//! node.run_rounds(&mut transport, 70, vec![(0, rumor)], &mut NullObserver)?;
//! # Ok::<(), std::io::Error>(())
//! ```

// `deny`, not `forbid`: `poll` carries the one sanctioned exception — the
// `poll(2)` call — under a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod poll;
pub mod transport;

pub use codec::{encode_frame, Decoder, Encoder, WireFrame, WireStats};
pub use transport::TcpTransport;
