//! **E3m — memory accounting of the high-`n` complexity sweeps.**
//!
//! The complexity experiment (E3) measures messages; this companion
//! measures the *resident footprint* of the simulator at the same
//! operating point — continuous injection in the pipeline regime
//! (deadline ≥ 32) — as `n` grows to 8192. Each sweep point records the
//! process peak-RSS before and after the run (the high-water mark is
//! monotone, so the per-point increment is attributable to that point),
//! cumulative heap bytes allocated inside the run, and wall-clock time.
//!
//! The memory-lean hot state (shared fragment handles, bounded hit-set
//! history, reused columnar outboxes) is what keeps the large-`n` points
//! inside a fixed budget; `scripts/ci.sh mem` replays the small-`n` sweep
//! under a hard RSS ceiling as a regression gate.

use congos::{CongosConfig, CongosNode};
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_gossip::FanoutParams;
use congos_sim::{NullObserver, Round};

use crate::json::Json;
use crate::mem;
use crate::run::{run_with_factory, RunDefaults};
use crate::table::{rows_json, Table};

/// Deadline of every sweep point: the smallest pipelined class (the direct
/// threshold itself — `dline ≥ 32` routes through the full split/proxy/
/// gossip pipeline rather than the direct-send shortcut).
pub const DEADLINE: u64 = 32;

/// Expected rumors injected per round across the whole system (the
/// per-process Poisson rate is this divided by `n`, so load per round is
/// `n`-independent and growth in footprint isolates the per-process
/// state). With deadline 32 this keeps ~32 rumors concurrently in flight —
/// a steady pipeline.
pub const RUMORS_PER_ROUND: f64 = 1.0;

/// The sweep's protocol configuration: the default deployment with two
/// deviations that keep large-`n` points tractable without touching the
/// hot-state machinery under measurement.
///
/// * **Sub-saturation fanout.** The default (laptop-scale) constants
///   saturate the fanout clamp whenever any rumor is active, which makes
///   every round an everyone-to-everyone exchange — `Θ(n²)` envelopes per
///   round and days of wall-clock at `n = 8192`. The sweep instead pins
///   the epidemic fanout to its clamp floor (`α = 0.05`, `γ = 0.25`), the
///   same kind of knob the fanout ablation (E9b) sweeps. Quality of
///   Delivery still holds — the deadline fallback is deterministic.
/// * **Best-effort metadata.** Collaborator beacons and hit-set shares are
///   injected every iteration by every process; with guaranteed delivery
///   each such rumor charges `Θ(|group|)` acks/fallbacks, an `n²` steady-
///   state term. The sweep sends them best-effort (`lean_metadata`).
///
/// Fragments (the rumors themselves) keep full QoD guarantees; the
/// shared fragment handles, bounded hit-set history and columnar outboxes
/// are exercised identically. The differential suites pin golden digests
/// on the *default* configuration, which is unaffected.
pub fn sweep_config() -> CongosConfig {
    CongosConfig::default()
        .service_fanout(FanoutParams {
            alpha: 0.05,
            gamma: 0.25,
            root: 2,
        })
        .gossip_fanout(FanoutParams {
            alpha: 0.05,
            gamma: 0.25,
            root: 3,
        })
        .lean_metadata(true)
}

/// The sweep sizes: quick (CI smoke) vs full (the EXPERIMENTS.md rows).
pub fn sweep_sizes(full: bool) -> &'static [usize] {
    if full {
        &[1024, 2048, 4096, 8192]
    } else {
        &[256, 512, 1024]
    }
}

/// Runs the memory sweep over the given sizes and returns its table.
pub fn sweep(ns: &[usize], defaults: &RunDefaults) -> Table {
    let mut t = Table::new(
        "E3m: memory accounting vs n (pipeline regime)",
        &[
            "n",
            "dline",
            "rounds",
            "rumors",
            "msgs",
            "rss_before_mib",
            "rss_after_mib",
            "rss_delta_mib",
            "alloc_mib",
            "live_peak_mib",
            "wall_ms",
            "built_mib",
        ],
    );
    for &n in ns {
        // Inject for two deadline windows, then drain one.
        let rounds = 3 * DEADLINE;
        let spec = defaults.spec(n, 0xE3_4E4, rounds);
        let rate = (RUMORS_PER_ROUND / n as f64).min(1.0);
        let w = PoissonWorkload::new(rate, 3, DEADLINE, 0xE3_4E4).until(Round(rounds - DEADLINE));
        let cfg = sweep_config();
        let o = run_with_factory::<CongosNode, _, _>(
            spec,
            move |id, nn, _s| CongosNode::with_config(id, nn, cfg.clone()),
            NoFailures,
            w,
            &mut NullObserver,
        );
        assert!(o.qod_theorem_holds(), "n={n}: {:?}", o.qod);
        t.row(vec![
            n.to_string(),
            DEADLINE.to_string(),
            rounds.to_string(),
            o.injections.len().to_string(),
            o.metrics.total().to_string(),
            mem::mib(o.mem.before.peak_rss),
            mem::mib(o.mem.after.peak_rss),
            mem::mib(o.mem.peak_rss_delta()),
            mem::mib(o.mem.allocated_delta()),
            mem::mib(o.mem.after.live_peak),
            format!("{:.1}", o.mem.wall_ms),
            mem::mib(o.mem.before.live),
        ]);
    }
    t.note(format!(
        "continuous injection at ~{RUMORS_PER_ROUND} rumors/round system-wide, deadline {DEADLINE} (pipeline regime)"
    ));
    t.note(
        "sweep config: clamp-floor fanout (alpha 0.05, gamma 0.25) and best-effort service \
         metadata — see e3_memory::sweep_config; defaults saturate the fanout clamp into \
         Theta(n^2) envelopes/round, infeasible at n = 8192",
    );
    t.note(
        "rss_before/after = process peak-RSS (VmHWM) at point entry/exit; the monotone \
         high-water mark attributes each point's delta to that point (sweep runs small→large n)",
    );
    t.note(
        "built_mib = live heap right after the engine is built, before its first round: \
         every node's empty state plus the agreed partition table the nodes share",
    );
    t
}

/// Runs E3m at the given scale.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    vec![sweep(sweep_sizes(full), defaults)]
}

/// Renders E3m tables as the `BENCH_memory.json` row set (one JSON object
/// per table row, keyed by column name).
pub fn bench_json(tables: &[Table]) -> Json {
    Json::object([
        ("suite", Json::from("memory")),
        ("deadline", Json::Number(DEADLINE as f64)),
        ("rows", rows_json(tables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3m_micro_sweep_accounts_memory() {
        let t = sweep(&[32, 64], &RunDefaults::default());
        assert_eq!(t.len(), 2);
        for r in 0..t.len() {
            // Wall clock and allocation deltas must be non-trivial.
            assert!(t.cell(r, 10).parse::<f64>().unwrap() > 0.0);
            assert!(t.cell(r, 8).parse::<f64>().unwrap() > 0.0);
            // The built state is live before the first round, so within
            // the live peak (at n = 32 it rounds to 0.0 MiB).
            let built: f64 = t.cell(r, 11).parse().unwrap();
            assert!(built <= t.cell(r, 9).parse::<f64>().unwrap());
            // RSS columns parse; on Linux the high-water mark is monotone.
            let before: f64 = t.cell(r, 5).parse().unwrap();
            let after: f64 = t.cell(r, 6).parse().unwrap();
            assert!(after >= before);
        }
        let doc = bench_json(&[t]);
        let rows = doc["rows"].as_array().expect("rows array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["n"].as_f64(), Some(32.0));
    }
}
