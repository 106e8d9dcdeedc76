//! **E3 — Lemma 7 / Theorem 11: per-round message complexity.**
//!
//! Two sweeps under continuous injection:
//!
//! * **vs `n`** at two fixed deadlines: Theorem 11's bound
//!   `O(n^{1+γ/⁶√dmin} polylog n)` is *loose at short deadlines* (at
//!   `dmin = 64` even the paper's own exponent exceeds 2) and tightens
//!   toward near-linear only as `dmin` grows toward `log⁶n`. The sweep
//!   fits the empirical exponent at a short and a long deadline and checks
//!   the fitted exponent is (a) within the configured bound and (b) smaller
//!   at the longer deadline;
//! * **vs `dmin`** at fixed `n`: the service cost (Proxy +
//!   GroupDistribution tags, metered exactly as Lemma 7 counts them —
//!   excluding the gossip substrate) should *fall* as deadlines grow,
//!   the `n^{48/√dmin}`-flavored decay;
//! * **vs backend** at large `n`: round-loop wall-clock of the sequential
//!   engine, the default (load-gated) backend and an always-parallel one
//!   on an identical light spec, asserting the outcomes are bit-identical
//!   (the determinism contract of `congos_sim::EngineBackend`).

use congos::{CongosNode, TAG_GD, TAG_PROXY};
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_sim::engine::AUTO_MIN_MSGS;
use congos_sim::{EngineBackend, Round};

use crate::run::{run as run_system, RunDefaults};
use crate::stats::fit_power_law;
use crate::table::Table;

/// The points one E3 run sweeps.
struct Sizes {
    /// E3a: the system sizes, swept at a short and a long deadline.
    a_ns: &'static [usize],
    a_deadlines: [u64; 2],
    /// E3b: the fixed system size and the deadlines swept at it.
    b_n: usize,
    b_deadlines: &'static [u64],
    /// E3c: the system sizes.
    c_ns: &'static [usize],
}

const QUICK: Sizes = Sizes {
    a_ns: &[16, 32, 64],
    a_deadlines: [64, 1024],
    b_n: 32,
    b_deadlines: &[64, 128, 256, 512],
    c_ns: &[256, 1024],
};

const FULL: Sizes = Sizes {
    a_ns: &[16, 32, 64, 128],
    a_deadlines: [64, 1024],
    b_n: 64,
    b_deadlines: &[64, 128, 256, 512, 1024],
    c_ns: &[512, 1024, 2048],
};

/// Runs E3 and returns its three tables.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    run_sized(sizes(full), defaults)
}

fn sizes(full: bool) -> &'static Sizes {
    if full {
        &FULL
    } else {
        &QUICK
    }
}

/// Every system size E3's sweeps run (E3a's, E3b's, E3c's).
pub fn ns(full: bool) -> Vec<usize> {
    let s = sizes(full);
    [s.a_ns, &[s.b_n], s.c_ns].concat()
}

fn run_sized(sizes: &Sizes, defaults: &RunDefaults) -> Vec<Table> {
    let mut out = Vec::new();

    // ---- Sweep n at a short and a long deadline. -------------------
    let mut t = Table::new(
        "E3a: per-round complexity vs n (Theorem 11)",
        &[
            "dline",
            "n",
            "max/rnd",
            "mean/rnd",
            "svc_max/rnd",
            "rumors",
            "lat_p50",
            "lat_p95",
        ],
    );
    let mut exponents = Vec::new();
    for &deadline in &sizes.a_deadlines {
        let mut xs = Vec::new();
        let mut mean_pr = Vec::new();
        for &n in sizes.a_ns {
            let rounds = 3 * deadline.min(512) + deadline;
            let spec = defaults.spec(n, 0xE3, rounds);
            let w = PoissonWorkload::new(0.05, 3, deadline, 0xE3).until(Round(rounds - deadline));
            let o = run_system::<CongosNode, _, _>(spec, NoFailures, w);
            assert!(o.qod_theorem_holds(), "n={n}: {:?}", o.qod);
            let svc = o
                .metrics
                .max_per_round_of(TAG_PROXY)
                .max(o.metrics.max_per_round_of(TAG_GD));
            t.row(vec![
                deadline.to_string(),
                n.to_string(),
                o.metrics.max_per_round().to_string(),
                format!("{:.1}", o.metrics.mean_per_round()),
                svc.to_string(),
                o.injections.len().to_string(),
                o.latency_percentile(50.0).to_string(),
                o.latency_percentile(95.0).to_string(),
            ]);
            xs.push(n as f64);
            mean_pr.push(o.metrics.mean_per_round());
        }
        exponents.push((deadline, fit_power_law(&xs, &mean_pr)));
    }
    let (d0, b0) = exponents[0];
    let (d1, b1) = exponents[1];
    t.note(format!(
        "mean-per-round exponents: n^{b0:.2} at dline={d0}, n^{b1:.2} at dline={d1} —          the bound n^(1+γ/⁶√dmin)·polylog tightens with the deadline (Theorem 11),          and the fitted exponent falls accordingly"
    ));
    assert!(
        b1 < b0,
        "longer deadlines must be cheaper per Theorem 11: {b1:.2} !< {b0:.2}"
    );
    out.push(t);

    // ---- Sweep deadline at fixed n. --------------------------------
    let n = sizes.b_n;
    let mut t = Table::new(
        "E3b: service cost vs deadline (Lemma 7 decay)",
        &["dline", "svc_max/rnd", "svc_total", "max/rnd", "rumors"],
    );
    let mut ds = Vec::new();
    let mut svc_max = Vec::new();
    for &d in sizes.b_deadlines {
        let rounds = 3 * d;
        let spec = defaults.spec(n, 0xE3B, rounds);
        // Fix the *number* of rumors per round so only the deadline varies.
        let w = PoissonWorkload::new(0.05, 3, d, 0xE3B).until(Round(rounds - d));
        let o = run_system::<CongosNode, _, _>(spec, NoFailures, w);
        assert!(o.qod_theorem_holds(), "d={d}: {:?}", o.qod);
        let svc = o
            .metrics
            .max_per_round_of(TAG_PROXY)
            .max(o.metrics.max_per_round_of(TAG_GD));
        let svc_total = o.metrics.total_of(TAG_PROXY) + o.metrics.total_of(TAG_GD);
        t.row(vec![
            d.to_string(),
            svc.to_string(),
            svc_total.to_string(),
            o.metrics.max_per_round().to_string(),
            o.injections.len().to_string(),
        ]);
        ds.push(d as f64);
        svc_max.push(svc.max(1) as f64);
    }
    let b = fit_power_law(&ds, &svc_max);
    t.note(format!(
        "service max-per-round scales as dline^{b:.2} (negative = the Lemma 7 decay)"
    ));
    out.push(t);

    // ---- Sweep backends at large n (engine scaling). ---------------
    // The workload stays light (≈3 msgs/round, direct path): no phase
    // reaches AUTO_MIN_MSGS, so the default backend runs every round inline
    // and must keep pace with Sequential, while parallel_auto() fans every
    // round out and pays its spawns. Timed is the round loop
    // (`RunOutcome::mem.wall_ms`), not node construction or QoD analysis;
    // each cell is the fastest of five interleaved runs after a warm-up
    // run. Outcomes must be bit-identical.
    let mut t = Table::new(
        "E3c: engine wall-clock vs backend at large n",
        &[
            "n", "seq_ms", "auto_ms", "par_ms", "auto_x", "par_x", "msgs",
        ],
    );
    let backends = [
        EngineBackend::Sequential,
        EngineBackend::default(),
        EngineBackend::parallel_auto(),
    ];
    for &n in sizes.c_ns {
        let rounds = 48u64;
        let mk = || PoissonWorkload::new(2.0 / n as f64, 3, 16, 0xE3C).until(Round(32));
        let run_on = |backend| {
            let spec = defaults.spec(n, 0xE3C, rounds).backend(backend);
            run_system::<CongosNode, _, _>(spec, NoFailures, mk())
        };
        let seq = run_on(EngineBackend::Sequential);
        let mut ms = [f64::INFINITY; 3];
        for _ in 0..5 {
            for (best, &backend) in ms.iter_mut().zip(&backends) {
                let o = run_on(backend);
                assert_eq!(
                    (&o.deliveries, o.metrics.total()),
                    (&seq.deliveries, seq.metrics.total()),
                    "n={n}: {backend} must be bit-identical to seq"
                );
                *best = best.min(o.mem.wall_ms);
            }
        }
        let [ms_seq, ms_auto, ms_par] = ms;
        t.row(vec![
            n.to_string(),
            format!("{ms_seq:.1}"),
            format!("{ms_auto:.1}"),
            format!("{ms_par:.1}"),
            format!("{:.2}x", ms_seq / ms_auto.max(1e-9)),
            format!("{:.2}x", ms_seq / ms_par.max(1e-9)),
            seq.metrics.total().to_string(),
        ]);
    }
    t.note(format!(
        "round loop only; auto = the default backend ({} workers on phases of at least {AUTO_MIN_MSGS} msgs, inline below), par = {} on every phase; x = seq_ms / backend ms; outcomes are bit-identical on every backend",
        EngineBackend::Auto.workers(),
        EngineBackend::parallel_auto()
    ));
    out.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sweep at its smallest informative points: the run still
    /// asserts QoD on every row, `b1 < b0` on E3a's fitted exponents and
    /// bit-identical outcomes across E3c's backends.
    const TEST: Sizes = Sizes {
        a_ns: &[8, 16, 32],
        a_deadlines: [64, 256],
        b_n: 16,
        b_deadlines: &[64, 128],
        c_ns: &[128],
    };

    #[test]
    fn e3_produces_all_sweeps() {
        let tables = run_sized(&TEST, &RunDefaults::default());
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| !t.is_empty()));
    }
}
