//! **E11 — Section 7: communication complexity (bits, not just messages).**
//!
//! The paper's discussion: gossip's merging advantage shows up in *message*
//! complexity; in *bits*, CONGOS pays `(#partitions × #fragments)` copies of
//! every rumor plus "a fairly large number of control bits", so its byte
//! overhead per delivered copy is a constant factor that matters for small
//! rumors and amortizes for large ones. This sweep measures bytes per
//! delivered rumor copy as the payload grows, for CONGOS vs the direct
//! unicast floor.

use congos::CongosNode;
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_baselines::DirectNode;
use congos_sim::Round;

use crate::run::{run as run_system, RunDefaults};
use crate::table::Table;

/// The system size E11 runs at.
pub fn n(full: bool) -> usize {
    if full {
        24
    } else {
        16
    }
}

/// Runs E11 and returns its table.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let n = n(full);
    let deadline = 64u64;
    let rounds = 3 * deadline;
    let sizes: &[usize] = if full {
        &[16, 256, 4096, 65536]
    } else {
        &[16, 1024, 16384]
    };

    let mut t = Table::new(
        "E11: bytes per delivered copy vs rumor size (Section 7)",
        &[
            "|z| bytes",
            "congos_bytes",
            "direct_bytes",
            "congos_bytes/copy",
            "direct_bytes/copy",
            "overhead×",
        ],
    );
    for &size in sizes {
        let spec = defaults.spec(n, 0xE11, rounds);
        let w = || {
            PoissonWorkload::new(0.02, 3, deadline, 0xE11)
                .until(Round(rounds - deadline))
                .data_len(size)
        };
        let congos = run_system::<CongosNode, _, _>(spec, NoFailures, w());
        let direct = run_system::<DirectNode, _, _>(spec, NoFailures, w());
        assert!(congos.qod_theorem_holds());
        assert!(direct.qod_theorem_holds());
        let copies: usize = congos.injections.iter().map(|e| e.spec.dest.len()).sum();
        let cb = congos.metrics.total_bytes() as f64 / copies.max(1) as f64;
        let db = direct.metrics.total_bytes() as f64 / copies.max(1) as f64;
        t.row(vec![
            size.to_string(),
            congos.metrics.total_bytes().to_string(),
            direct.metrics.total_bytes().to_string(),
            format!("{cb:.0}"),
            format!("{db:.0}"),
            format!("{:.1}", cb / db.max(1.0)),
        ]);
    }
    t.note(
        "the overhead factor shrinks as |z| grows: control bits amortize, \
            fragment copies remain (paper: reasonable for large rumors, \
            significant for small ones)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e11_overhead_amortizes_with_rumor_size() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        let first: f64 = t.cell(0, 5).parse().unwrap();
        let last: f64 = t.cell(t.len() - 1, 5).parse().unwrap();
        assert!(
            last < first,
            "per-copy overhead must shrink as rumors grow: {first} → {last}"
        );
        assert!(last >= 1.0, "direct unicast is the floor");
    }
}
