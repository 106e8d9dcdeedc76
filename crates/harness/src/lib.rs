//! # congos-harness — experiments reproducing the paper's claims
//!
//! *Confidential Gossip* is a theory paper: its "evaluation" is a set of
//! theorems and lemmas. This crate turns each quantitative claim into a
//! measurable experiment over the simulator, and prints the tables recorded
//! in `EXPERIMENTS.md`. Experiment ids (E1–E14 and E3m) match DESIGN.md §4;
//! [`experiments::REGISTRY`] — printed by `exp --list` — names each one and
//! the claim it measures.
//!
//! Run any experiment with `cargo run --release -p congos-harness --bin exp
//! -- e1` (etc.; `exp --list` names them), or all of them with `exp all`.
//! Pass `--full` for the larger sweeps, and `--topology
//! <complete|expander:d|churn:p>` to run an experiment on a sparser or
//! churning network, which changes measured outcomes. The flags are parsed
//! once into a [`RunDefaults`] that every `experiments::*::run(full,
//! &RunDefaults)` receives; there is no process-global or environment
//! configuration. The engine picks its own parallelism (its default
//! [`congos_sim::EngineBackend::Auto`]): results are bit-identical on every
//! backend, so there is nothing to choose.
//!
//! Every engine run goes through [`run_with_factory`] ([`run()`] is its
//! default-construction shorthand): it builds the engine, drives it with
//! the caller's [`congos_sim::Observer`], asserts that the engine rejected
//! no plan decision and that no process rejected a message, and returns one
//! [`RunOutcome`]. No experiment drives an engine of its own.
//!
//! Every run over TCP goes through [`Cluster`]: `n` CONGOS nodes on
//! localhost sockets, driven by a static injection schedule. The
//! TCP-vs-engine differential tests turn an oblivious workload into that
//! schedule with [`materialize_injections`] and compare the
//! [`ClusterReport`] with the engine run. The `congos-node` binary runs the
//! same `Cluster` as one OS process per node.

// `deny`, not `forbid`: `mem` carries the one sanctioned exception — the
// counting global allocator — under a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiments;
pub mod json;
pub mod mem;
pub mod run;
pub mod stats;
pub mod system;
pub mod table;

pub use cluster::{materialize_injections, Cluster, ClusterReport};
pub use json::Json;
pub use mem::{MemSample, MemUsage};
pub use run::{
    run, run_with_factory, ArgError, DeliveryRecord, QodSummary, RunDefaults, RunOutcome, RunSpec,
};
pub use stats::{fit_power_law, percentile};
pub use system::GossipSystem;
pub use table::{tables_to_markdown, Table};
