//! **E8 — alternative approaches: CONGOS vs direct / crypto / epidemic.**
//!
//! The paper's discussion section in numbers. Two regimes:
//!
//! * **dynamic groups** — every rumor draws a fresh destination set: the
//!   crypto comparator re-keys for every rumor, the strongly confidential
//!   protocol cannot batch, the plain epidemic is cheap but leaks
//!   everything, and CONGOS pays its pipeline overhead but keeps per-round
//!   complexity flat and confidentiality intact;
//! * **stable groups** — rumors reuse a few fixed groups: re-keying
//!   amortizes away and crypto multicast becomes the cheapest confidential
//!   option, exactly as the paper concedes.

use congos::CongosNode;
use congos_adversary::{NoFailures, PoissonWorkload, StableGroupWorkload};
use congos_baselines::{CryptoMulticastNode, DirectNode, StronglyConfidentialNode, TAG_REKEY};
use congos_gossip::GossipNode;
use congos_sim::{ProcessId, Round};

use crate::run::{run as run_system, RunDefaults, RunOutcome, RunSpec};
use crate::table::Table;

const DEADLINE: u64 = 64;

fn push_row(t: &mut Table, o: &RunOutcome, rekeys: u64) {
    assert!(o.qod_theorem_holds(), "{}: {:?}", o.name, o.qod);
    let copies: usize = o.injections.iter().map(|e| e.spec.dest.len()).sum();
    t.row(vec![
        o.name.to_string(),
        o.metrics.total().to_string(),
        o.metrics.max_per_round().to_string(),
        format!("{:.1}", o.metrics.mean_per_round()),
        rekeys.to_string(),
        format!("{:.2}", rekeys as f64 / copies.max(1) as f64),
        format!("{:.1}", 100.0 * o.qod.on_time_rate()),
    ]);
}

fn regime(title: &str, spec: RunSpec, fresh: bool, stable_groups: usize) -> Table {
    let (n, rounds) = (spec.n, spec.rounds);
    let mut t = Table::new(
        title,
        &[
            "system",
            "total",
            "max/rnd",
            "mean/rnd",
            "rekey_msgs",
            "rekey/copy",
            "on_time%",
        ],
    );
    macro_rules! go {
        ($P:ty) => {{
            if fresh {
                let w =
                    PoissonWorkload::new(0.05, 4, DEADLINE, 0xE8).until(Round(rounds - DEADLINE));
                run_system::<$P, _, _>(spec, NoFailures, w)
            } else {
                let groups: Vec<Vec<ProcessId>> = (0..stable_groups)
                    .map(|g| {
                        (0..n)
                            .filter(|i| i % stable_groups == g)
                            .map(ProcessId::new)
                            .collect()
                    })
                    .collect();
                let w = StableGroupWorkload::new(groups, 0.05, DEADLINE, 0xE8)
                    .until(Round(rounds - DEADLINE));
                run_system::<$P, _, _>(spec, NoFailures, w)
            }
        }};
    }
    let o = go!(CongosNode);
    push_row(&mut t, &o, 0);
    let o = go!(DirectNode);
    push_row(&mut t, &o, 0);
    let o = go!(StronglyConfidentialNode);
    push_row(&mut t, &o, 0);
    let o = go!(CryptoMulticastNode);
    let rekeys = o.metrics.total_of(TAG_REKEY);
    push_row(&mut t, &o, rekeys);
    let o = go!(GossipNode);
    push_row(&mut t, &o, 0);
    t
}

/// The system size E8 runs at.
pub fn n(full: bool) -> usize {
    if full {
        64
    } else {
        32
    }
}

/// Runs E8 and returns its two tables.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let n = n(full);
    let rounds = if full { 6 * DEADLINE } else { 4 * DEADLINE };
    let spec = defaults.spec(n, 0xE8, rounds);
    let mut dynamic = regime(
        "E8a: dynamic groups (fresh destination set per rumor)",
        spec,
        true,
        0,
    );
    dynamic.note("crypto pays a fresh re-key for every rumor (rekey/copy stays high); epidemic leaks everything; congos stays confidential");
    let mut stable = regime("E8b: stable groups (2 fixed groups)", spec, false, 2);
    stable.note("re-keying amortizes toward 0 per delivered copy: the crypto comparator wins, as the paper concedes");
    vec![dynamic, stable]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_crypto_rekeys_more_under_dynamic_groups() {
        let tables = super::run(false, &crate::RunDefaults::default());
        // Normalized per delivered rumor copy, dynamic groups re-key far
        // more than stable groups (where the cost amortizes away).
        let per_copy_dyn: f64 = tables[0].cell(3, 5).parse().unwrap();
        let per_copy_stable: f64 = tables[1].cell(3, 5).parse().unwrap();
        assert!(
            per_copy_dyn > 2.0 * per_copy_stable.max(0.01),
            "dynamic {per_copy_dyn} vs stable {per_copy_stable} per copy"
        );
    }
}
