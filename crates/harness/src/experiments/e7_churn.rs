//! **E7 — robustness: QoD and fallback rarity under churn (Lemma 10).**
//!
//! Sweeps the per-round crash probability. Two things must hold:
//! admissible rumors are *always* delivered on time (probability-1 QoD),
//! and the deadline fallback stays rare while the pipeline can still
//! function — Lemma 10 says sources normally receive confirmation before
//! the deadline, so "shoot" messages are the exception, not the mechanism.

use congos::CongosNode;
use congos_adversary::{PoissonWorkload, RandomChurn};
use congos_sim::Round;

use crate::run::{run as run_system, RunDefaults, RunSpec};
use crate::table::Table;

const DEADLINE: u64 = 64;

/// The churn and the workload of E7's row at crash probability `p`.
fn plans(p: f64, rounds: u64) -> (RandomChurn, PoissonWorkload) {
    let workload = PoissonWorkload::new(0.03, 3, DEADLINE, 0xE7).until(Round(rounds - DEADLINE));
    (RandomChurn::new(p, 0.15, 0xE7), workload)
}

/// Runs E7 and returns its table.
pub fn run(full: bool, _defaults: &RunDefaults) -> Vec<Table> {
    let n = if full { 32 } else { 16 };
    let rounds = if full { 512u64 } else { 256 };
    let crash_ps: &[f64] = if full {
        &[0.0, 0.001, 0.002, 0.005, 0.01, 0.02]
    } else {
        &[0.0, 0.002, 0.01]
    };

    let mut t = Table::new(
        "E7: robustness under churn (Lemma 10)",
        &[
            "p_crash",
            "crashes",
            "admissible",
            "on_time%",
            "late",
            "missed",
            "confirmed",
            "fallbacks",
        ],
    );
    for &p in crash_ps {
        let (churn, workload) = plans(p, rounds);
        // Pins the paper's complete network (`RunSpec::new`): E7 isolates
        // process churn, E14 isolates link churn.
        let out = run_system::<CongosNode, _, _>(RunSpec::new(n, 0xE7, rounds), churn, workload);
        let qod = out.qod;
        assert!(qod.perfect(), "p={p}: QoD violated");

        t.row(vec![
            format!("{p:.3}"),
            out.liveness.crash_count().to_string(),
            qod.admissible.to_string(),
            format!("{:.1}", 100.0 * qod.on_time_rate()),
            qod.late.to_string(),
            qod.missed.to_string(),
            out.stats.confirmed.to_string(),
            out.stats.fallbacks.to_string(),
        ]);
    }
    t.note("on_time% = 100 in every row (probability-1 QoD for admissible rumors)");
    t.note("fallbacks stay a small fraction of confirmed while the system is mostly alive");
    // (The benign row's fallback rate is a Lemma 10 "w.h.p." residual.)
    vec![t]
}

#[cfg(test)]
mod tests {
    use congos::CongosNode;
    use congos_sim::{Observer, ProcessId, Protocol, Round};

    use crate::run::{run_with_factory, RunSpec};

    /// Counts the injections the engine makes.
    #[derive(Default)]
    struct Injections(u64);

    impl Observer<CongosNode> for Injections {
        fn on_inject(&mut self, _: Round, _: ProcessId, _: &congos::CongosInput) {
            self.0 += 1;
        }
    }

    #[test]
    fn e7_stats_count_every_incarnation() {
        // The quick row at p_crash = 0.010: many nodes crash after taking
        // injections, and their counts must not go with them.
        let (churn, workload) = super::plans(0.01, 256);
        let mut made = Injections::default();
        let spec = RunSpec::new(16, 0xE7, 256);
        let out = run_with_factory(spec, CongosNode::new, churn, workload, &mut made);
        assert!(out.liveness.crash_count() > 0);
        assert!(made.0 > 0 && made.0 <= out.injections.len() as u64);
        assert_eq!(out.stats.injected, made.0);
    }

    #[test]
    fn e7_benign_fallbacks_are_rare() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        assert_eq!(t.cell(0, 0), "0.000");
        let confirmed: f64 = t.cell(0, 6).parse().unwrap();
        let fallbacks: f64 = t.cell(0, 7).parse().unwrap();
        // Lemma 10 is a w.h.p. statement: at n=16 a sub-2% residual rate is
        // consistent; the benign pipeline must confirm the overwhelming
        // majority without the fallback.
        assert!(
            fallbacks <= 0.02 * (confirmed + fallbacks).max(1.0),
            "benign fallback rate too high: {fallbacks} of {}",
            confirmed + fallbacks
        );
        assert_eq!(t.cell(0, 3), "100.0");
    }
}
