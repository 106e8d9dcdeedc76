//! Construction guard: the live heap an engine of the E3m sweep's
//! configuration holds once built, before its first round, stays within a
//! budget per node.
//!
//! The counting allocator of `harness::mem` is process-wide, so this binary
//! holds exactly one test: nothing else allocates while the engine is
//! built.

use confidential_gossip::congos::CongosNode;
use confidential_gossip::harness::experiments::e3_memory::sweep_config;
use confidential_gossip::harness::mem;
use confidential_gossip::sim::{Engine, EngineConfig};

/// Live bytes per node right after building the n = 1024 engine below
/// (777 568 B in total; the count is deterministic), every node holding an
/// `Arc` to the one agreed partition table of the process.
/// History of the same build, the earlier level failing this budget: a
/// partition table of its own in every node, ≈ 14.6 KiB (14 985.1 B) per
/// node.
const MEASURED: f64 = 759.3;

#[test]
fn engine_construction_stays_within_budget_per_node() {
    let n = 1024;
    let cfg = sweep_config();
    let before = mem::bytes_live();
    let engine =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(7), move |id, n, _| {
            CongosNode::with_config(id, n, cfg.clone())
        });
    let built = mem::bytes_live().saturating_sub(before);
    drop(engine);

    let per_node = built as f64 / n as f64;
    eprintln!("build_budget: {built} B live for {n} nodes = {per_node:.1} B/node");
    let budget = 1.15 * MEASURED;
    assert!(
        per_node <= budget,
        "{per_node:.1} B/node live after construction, budget {budget:.1} (1.15 × {MEASURED})"
    );
}
