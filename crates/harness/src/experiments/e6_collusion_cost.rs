//! **E6 — Theorem 16: the `τ²` cost of collusion tolerance.**
//!
//! Collusion-tolerant CONGOS uses `Θ(τ log n)` partitions of `τ+1` groups —
//! a `τ²` blow-up in fragment traffic relative to the base algorithm.
//! Fixed `n` and workload, sweeping `τ`: per-round message complexity
//! should grow roughly quadratically (the fitted `τ`-exponent lands near
//! 2, modulo saturation at small group sizes).

use congos::{CongosConfig, CongosNode};
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_sim::{NullObserver, Round};

use crate::run::{run_with_factory, RunDefaults};
use crate::stats::fit_power_law;
use crate::table::Table;

/// The system size E6 runs at.
pub fn n(full: bool) -> usize {
    if full {
        64
    } else {
        32
    }
}

/// Runs E6 and returns its table.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let n = n(full);
    let taus: &[usize] = if full {
        &[1, 2, 3, 4, 6]
    } else {
        &[1, 2, 3, 4]
    };
    let deadline = 64u64;
    let rounds = 3 * deadline;

    let mut t = Table::new(
        "E6: collusion-tolerance cost vs tau (Theorem 16)",
        &[
            "tau",
            "partitions",
            "groups",
            "max/rnd",
            "mean/rnd",
            "total",
        ],
    );
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &tau in taus {
        let cfg = CongosConfig::collusion_tolerant(tau, 0xE6).without_degenerate_shortcut();
        let spec = defaults.spec(n, 0xE6 + tau as u64, rounds);
        let workload =
            PoissonWorkload::new(0.02, 3, deadline, 0xE6).until(Round(rounds - deadline));
        let cfg2 = cfg.clone();
        let o = run_with_factory::<CongosNode, _, _>(
            spec,
            move |id, n, _s| CongosNode::with_config(id, n, cfg2.clone()),
            NoFailures,
            workload,
            &mut NullObserver,
        );
        assert!(o.qod_theorem_holds(), "tau={tau}: {:?}", o.qod);
        let lg = (n as f64).log2();
        let partitions = (2.0 * tau as f64 * lg).ceil() as usize;
        t.row(vec![
            tau.to_string(),
            partitions.to_string(),
            (tau + 1).to_string(),
            o.metrics.max_per_round().to_string(),
            format!("{:.1}", o.metrics.mean_per_round()),
            o.metrics.total().to_string(),
        ]);
        xs.push(tau as f64);
        ys.push(o.metrics.mean_per_round());
    }
    let b = fit_power_law(&xs, &ys);
    t.note(format!(
        "mean-per-round grows as tau^{b:.2} (Theorem 16 predicts a tau² factor)"
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_cost_increases_with_tau() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        let first: f64 = t.cell(0, 4).parse().unwrap();
        let last: f64 = t.cell(t.len() - 1, 4).parse().unwrap();
        assert!(last > 1.5 * first, "tau must cost: {first} → {last}");
    }
}
