//! **E2 — Theorem 2: confidentiality and Quality of Delivery, always.**
//!
//! Runs CONGOS against a matrix of adversaries — benign, random churn,
//! the adaptive proxy-killer, group annihilation — with the
//! confidentiality auditor attached. Every cell must read: 0 violations,
//! 100% of admissible (rumor, destination) pairs delivered on time. These
//! are the probability-1 guarantees of Lemmas 3 and 4.

use congos::{ConfidentialityAuditor, CongosNode};
use congos_adversary::{
    Eclipse, FailurePlan, GroupAnnihilator, NoFailures, PoissonWorkload, ProxyKiller, RandomChurn,
    RollingWaves,
};
use congos_sim::{ProcessId, Protocol, Round, Tag};

use crate::run::{run_with_factory, RunDefaults, RunOutcome, RunSpec};
use crate::table::Table;

/// One audited CONGOS run: its outcome and the auditor's violation count.
fn run_audited<F: FailurePlan>(
    n: usize,
    seed: u64,
    rounds: u64,
    failures: F,
) -> (RunOutcome, usize) {
    let deadline = 64u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, seed).until(Round(rounds - deadline));
    let mut audit = ConfidentialityAuditor::new(n);
    // Theorem replication pins the paper's complete network (`RunSpec::new`);
    // the sparse/churn sweep lives in E14.
    let spec = RunSpec::new(n, seed, rounds);
    let out = run_with_factory(spec, CongosNode::new, failures, workload, &mut audit);
    (out, audit.report().violations.len())
}

/// Runs E2 and returns its table.
pub fn run(full: bool, _defaults: &RunDefaults) -> Vec<Table> {
    let n = if full { 32 } else { 16 };
    let rounds = if full { 384 } else { 256 };
    let mut t = Table::new(
        "E2: correctness matrix (Theorem 2 / Lemmas 3-4)",
        &[
            "adversary",
            "crashes",
            "admissible",
            "on_time",
            "late",
            "missed",
            "violations",
        ],
    );

    let killer = ProxyKiller::new(Tag("proxy"), 1).revive_after(48);
    let eclipse = Eclipse::new(ProcessId::new(3), Round(rounds / 2), 1);
    let scenarios = [
        ("none", run_audited(n, 0xE2_01, rounds, NoFailures)),
        (
            "random churn",
            run_audited(n, 0xE2_02, rounds, RandomChurn::new(0.004, 0.15, 0xE2)),
        ),
        ("proxy killer", run_audited(n, 0xE2_03, rounds, killer)),
        (
            "group annihilation",
            run_audited(n, 0xE2_04, rounds, GroupAnnihilator::new(0, 0, Round(8))),
        ),
        ("eclipse", run_audited(n, 0xE2_05, rounds, eclipse)),
        (
            "rolling waves",
            run_audited(n, 0xE2_06, rounds, RollingWaves::new(2, 48)),
        ),
    ];

    for (name, (out, violations)) in scenarios {
        let qod = out.qod;
        assert_eq!(violations, 0, "{name}: confidentiality violated");
        assert!(qod.perfect(), "{name}: QoD violated: {qod:?}");
        t.row(vec![
            name.to_string(),
            out.liveness.crash_count().to_string(),
            qod.admissible.to_string(),
            qod.on_time.to_string(),
            qod.late.to_string(),
            qod.missed.to_string(),
            violations.to_string(),
        ]);
    }
    t.note("every row must read late=0 missed=0 violations=0 (probability-1 guarantees)");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e2_matrix_is_clean() {
        let tables = super::run(false, &crate::RunDefaults::default());
        for r in 0..tables[0].len() {
            assert_eq!(tables[0].cell(r, 4), "0", "late");
            assert_eq!(tables[0].cell(r, 5), "0", "missed");
            assert_eq!(tables[0].cell(r, 6), "0", "violations");
        }
    }
}
