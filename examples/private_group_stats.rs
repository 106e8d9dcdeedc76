//! The paper's motivating application: social networks computing aggregate
//! statistics without leaking in-group data.
//!
//! Run with:
//!
//! ```text
//! cargo run --example private_group_stats
//! ```
//!
//! Several "social networking sites" (disjoint groups of processes) want to
//! compute their average member activity. Members continuously publish
//! their activity counters as confidential rumors destined *only to their
//! own group*; every process in the system relays fragments, but only group
//! members ever see the values. Each group then aggregates locally. The
//! example checks both the aggregate and, via the auditor, that no value
//! crossed a group boundary.

use std::collections::HashMap;

use congos::{ConfidentialityAuditor, CongosNode};
use congos_adversary::{qod, CrriAdversary, NoFailures, StableGroupWorkload};
use congos_sim::{Engine, EngineConfig, ProcessId, Round};

fn main() {
    let n = 24;
    let group_count = 3;
    let deadline = 64u64;
    let rounds = 3 * deadline;

    // Three fixed "sites": processes 0,3,6,… / 1,4,7,… / 2,5,8,…
    let groups: Vec<Vec<ProcessId>> = (0..group_count)
        .map(|g| {
            (0..n)
                .filter(|i| i % group_count == g)
                .map(ProcessId::new)
                .collect()
        })
        .collect();
    println!(
        "private group statistics over {group_count} sites of {} members",
        n / group_count
    );

    // Members publish activity counters (the workload payload bytes double
    // as the "value"; the first byte is the activity counter).
    let workload =
        StableGroupWorkload::new(groups.clone(), 0.08, deadline, 7).until(Round(rounds - deadline));
    let mut adversary = CrriAdversary::new(NoFailures, workload);

    let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(99));
    let mut audit = ConfidentialityAuditor::new(n);
    engine.run_observed(rounds, &mut adversary, &mut audit);
    audit.assert_clean();
    println!("confidentiality audit: clean ✓ (no value crossed a site boundary)");

    // Which group was each rumor destined to?
    let mut group_of_rumor: HashMap<u64, usize> = HashMap::new();
    for entry in adversary.injections() {
        let g = groups
            .iter()
            .position(|grp| *grp == entry.spec.dest)
            .expect("stable-group workload");
        group_of_rumor.insert(entry.spec.id, g);
    }

    // Each site aggregates the activity values its members received.
    let mut sums = vec![(0u64, 0u64); group_count]; // (sum, count) per site
    let mut seen: Vec<HashMap<u64, ()>> = vec![HashMap::new(); group_count];
    for out in engine.outputs() {
        let g = group_of_rumor[&out.value.wid];
        assert!(
            groups[g].contains(&out.process),
            "value delivered outside its site!"
        );
        if seen[g].insert(out.value.wid, ()).is_none() {
            sums[g].0 += out.value.data[0] as u64;
            sums[g].1 += 1;
        }
    }
    for (g, (sum, count)) in sums.iter().enumerate() {
        if *count > 0 {
            println!(
                "  site {g}: {count} activity reports, average activity {:.1}",
                *sum as f64 / *count as f64
            );
        }
    }

    // Every published value reached its whole site by its deadline.
    let (log, out) = (adversary.injections(), engine.outputs());
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(log, delivered, engine.liveness(), engine.topology());
    q.assert_every_pair_on_time();
    println!(
        "all {} (report, member) deliveries met their deadline ✓",
        q.summary.on_time
    );
}
