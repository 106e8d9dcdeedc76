//! The agreed partition table is built once per OS process and shared by
//! `Arc`: every node of a deployment holds the same table, a different
//! input gets a table of its own, and the table dies with its last holder.

use std::sync::Arc;

use congos::{CongosConfig, CongosNode, PartitionScheme, PartitionSet};
use congos_adversary::{CrriAdversary, NoInjections, ScheduledChurn};
use congos_sim::{Engine, EngineConfig, ProcessId, Round};

#[test]
fn every_node_and_every_incarnation_shares_one_table() {
    let n = 16;
    let victim = ProcessId::new(5);
    let cfg = CongosConfig::base();
    let mut engine =
        Engine::<CongosNode>::with_factory(EngineConfig::new(n).seed(3), move |id, n, _| {
            CongosNode::with_config(id, n, cfg.clone())
        });
    let first = engine.protocol(ProcessId::new(0)).partitions();
    assert!(ProcessId::all(n).all(|p| std::ptr::eq(engine.protocol(p).partitions(), first)));

    let churn = ScheduledChurn::new()
        .crash_at(Round(1), victim)
        .restart_at(Round(3), victim);
    engine.run(5, &mut CrriAdversary::new(churn, NoInjections));
    assert!(
        !engine
            .liveness()
            .continuously_alive(victim, Round(0), Round(4)),
        "the victim was never restarted"
    );
    let first = engine.protocol(ProcessId::new(0)).partitions();
    assert!(std::ptr::eq(engine.protocol(victim).partitions(), first));
    assert_eq!(*first, PartitionSet::bits(n));
}

#[test]
fn each_input_gets_its_own_table_equal_to_a_fresh_build() {
    let collusion = CongosConfig::collusion_tolerant(2, 5).without_degenerate_shortcut();
    let with_c = |c| CongosConfig {
        scheme: PartitionScheme::Random { c, seed: 5 },
        ..collusion.clone()
    };
    // (n, configuration, the table it must equal, the cap it applies).
    let cases = [
        (64, CongosConfig::base(), PartitionSet::bits(64), None),
        (65, CongosConfig::base(), PartitionSet::bits(65), None),
        (
            64,
            CongosConfig::base().max_partitions(2),
            PartitionSet::bits(64),
            Some(2),
        ),
        (
            64,
            CongosConfig::base().max_partitions(3),
            PartitionSet::bits(64),
            Some(3),
        ),
        (
            64,
            collusion.clone(),
            PartitionSet::random(64, 2, 2.0, 5),
            None,
        ),
        (64, with_c(3.0), PartitionSet::random(64, 2, 3.0, 5), None),
        (
            64,
            CongosConfig::collusion_tolerant(2, 6).without_degenerate_shortcut(),
            PartitionSet::random(64, 2, 2.0, 6),
            None,
        ),
        (
            64,
            CongosConfig::collusion_tolerant(3, 5).without_degenerate_shortcut(),
            PartitionSet::random(64, 3, 2.0, 5),
            None,
        ),
        (
            64,
            collusion.clone().max_partitions(4),
            PartitionSet::random(64, 2, 2.0, 5),
            Some(4),
        ),
        // τ = 2 at n = 64 is degenerate: the shortcut sends directly.
        (
            64,
            CongosConfig::collusion_tolerant(2, 5),
            PartitionSet::bits(0),
            None,
        ),
    ];
    let tables: Vec<Arc<PartitionSet>> = cases
        .iter()
        .map(|(n, cfg, _, _)| PartitionSet::agreed(*n, cfg))
        .collect();
    for (i, ((n, cfg, fresh, cap), table)) in cases.iter().zip(&tables).enumerate() {
        let len = cap.map_or(fresh.len(), |cap| cap.min(fresh.len()));
        assert_eq!(table.len(), len, "case {i}");
        assert_eq!(table.n(), fresh.n(), "case {i}");
        assert_eq!(
            table.groups_per_partition(),
            fresh.groups_per_partition(),
            "case {i}"
        );
        assert!(
            table.iter().zip(fresh.iter()).all(|(a, b)| a == b),
            "case {i}: the agreed table differs from a fresh build"
        );
        // An equal configuration built apart (as every `Protocol::new`
        // does) reaches the same table.
        assert!(Arc::ptr_eq(table, &PartitionSet::agreed(*n, &cfg.clone())));
        for (j, other) in tables.iter().enumerate().take(i) {
            assert!(
                !Arc::ptr_eq(table, other),
                "cases {j} and {i} share a table"
            );
        }
    }
}

#[test]
fn the_memo_keeps_no_table_past_its_last_holder() {
    // A key no other test of this binary uses.
    let cfg = CongosConfig::collusion_tolerant(2, 0xD1E).without_degenerate_shortcut();
    let table = PartitionSet::agreed(48, &cfg);
    let node = CongosNode::with_config(ProcessId::new(7), 48, cfg.clone());
    assert!(std::ptr::eq(node.partitions(), &*table));
    let weak = Arc::downgrade(&table);
    drop(table);
    assert!(weak.upgrade().is_some(), "the node still holds the table");
    drop(node);
    assert!(weak.upgrade().is_none(), "the memo kept a table alive");

    // The next call builds the same table afresh.
    assert_eq!(
        *PartitionSet::agreed(48, &cfg),
        PartitionSet::random(48, 2, 2.0, 0xD1E)
    );
}
