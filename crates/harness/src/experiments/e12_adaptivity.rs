//! **E12 — adaptive vs oblivious adversaries (Section 7's open question).**
//!
//! The paper closes asking whether weaker (oblivious) adversaries would
//! allow stronger guarantees. This experiment quantifies the *power gap*
//! the adaptivity actually buys the adversary against CONGOS: an adaptive
//! proxy-killer (crashes processes the instant the round's coin flips pick
//! them as proxies) versus an oblivious killer with the *same crash budget
//! on the same rounds* but with targets fixed in advance. The adaptive
//! attack lands every crash on a just-sampled proxy; the oblivious one
//! spends the same budget blind. The table reports the resulting pipeline
//! confirmations and fallback rates side by side (at laptop scale the gap
//! turns out modest — the `log n` partitions blunt targeted kills). QoD
//! holds for both, by Theorem 2.

use congos::CongosNode;
use congos_adversary::{CrriAdversary, FailurePlan, PoissonWorkload, ProxyKiller, ScheduledChurn};
use congos_sim::{Engine, EngineConfig, ProcessId, Round, Tag};

use crate::run::{engine_qod, RunDefaults};
use crate::table::Table;

struct Outcome {
    crashes: usize,
    confirmed: u64,
    fallbacks: u64,
    on_time_rate: f64,
}

fn run_against<F: FailurePlan>(cfg: EngineConfig, rounds: u64, failures: F) -> Outcome {
    let (n, seed) = (cfg.n(), cfg.master_seed());
    let deadline = 64u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, seed).until(Round(rounds - deadline));
    let mut adv = CrriAdversary::new(failures, workload);
    let mut engine = Engine::<CongosNode>::new(cfg);
    engine.run(rounds, &mut adv);

    let (mut confirmed, mut fallbacks) = (0u64, 0u64);
    for p in ProcessId::all(n) {
        let s = engine.protocol(p).stats();
        confirmed += s.confirmed;
        fallbacks += s.fallbacks;
    }
    let qod = engine_qod(&engine, adv.injections()).1.summary;
    assert!(qod.perfect(), "QoD must hold regardless of adaptivity");
    Outcome {
        crashes: engine.liveness().crash_count(),
        confirmed,
        fallbacks,
        on_time_rate: qod.on_time_rate(),
    }
}

/// Runs E12 and returns its table.
pub fn run(full: bool, _defaults: &RunDefaults) -> Vec<Table> {
    let n = if full { 24 } else { 16 };
    let rounds = if full { 384u64 } else { 256 };

    // Phase 1: the adaptive attack, recording when it struck.
    let deadline = 64u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, 0xE12).until(Round(rounds - deadline));
    let killer = ProxyKiller::new(Tag("proxy"), 1).revive_after(40);
    let mut adaptive_adv = CrriAdversary::new(killer, workload);
    let cfg = EngineConfig::new(n).seed(0xE12);
    let mut engine = Engine::<CongosNode>::new(cfg);
    engine.run(rounds, &mut adaptive_adv);
    // Extract the adaptive run's crash/restart schedule.
    let mut schedule = ScheduledChurn::new();
    let mut crash_count = 0usize;
    for p in ProcessId::all(n) {
        for ev in engine.liveness().events(p) {
            match ev {
                congos_sim::liveness::LivenessEvent::Crash(r) => {
                    crash_count += 1;
                    // Oblivious twin: same rounds, same *number* of crashes,
                    // but targets rotated by one — fixed before the run, so
                    // they cannot track the sampled proxies.
                    let twin = ProcessId::new((p.as_usize() + 1) % n);
                    schedule = schedule.crash_at(*r, twin);
                }
                congos_sim::liveness::LivenessEvent::Restart(r) => {
                    let twin = ProcessId::new((p.as_usize() + 1) % n);
                    schedule = schedule.restart_at(*r, twin);
                }
            }
        }
    }
    let _ = crash_count;

    let mut t = Table::new(
        "E12: adaptive vs oblivious adversary (Section 7 open question)",
        &[
            "adversary",
            "crashes",
            "confirmed",
            "fallbacks",
            "fallback%",
            "on_time%",
        ],
    );
    let adaptive = run_against(
        cfg,
        rounds,
        ProxyKiller::new(Tag("proxy"), 1).revive_after(40),
    );
    let oblivious = run_against(cfg, rounds, schedule);
    for (name, o) in [("adaptive", adaptive), ("oblivious twin", oblivious)] {
        let total = (o.confirmed + o.fallbacks).max(1);
        t.row(vec![
            name.to_string(),
            o.crashes.to_string(),
            o.confirmed.to_string(),
            o.fallbacks.to_string(),
            format!("{:.1}", 100.0 * o.fallbacks as f64 / total as f64),
            format!("{:.1}", 100.0 * o.on_time_rate),
        ]);
    }
    t.note(
        "same crash budget on the same rounds; neither adversary ever gains a QoD or \
         confidentiality violation (Theorem 2)",
    );
    t.note(
        "at laptop scale the adaptive/oblivious fallback gap is modest: the log n \
         partitions already blunt targeted kills — consistent with the paper's \
         conjecture that oblivious adversaries admit stronger guarantees only at \
         higher collusion levels",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_qod_holds_for_both_adversaries() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        assert_eq!(t.len(), 2);
        for r in 0..2 {
            assert_eq!(t.cell(r, 5), "100.0");
        }
    }
}
