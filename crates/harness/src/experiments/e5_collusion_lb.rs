//! **E5 — Theorem 12: the collusion lower bound, observed.**
//!
//! Theorem 12 argues that any τ-collusion-tolerant, partition-based
//! algorithm must push at least `τ+1` *border messages* per rumor — rumor
//! fragments crossing from the rumor's entitled set (`ρ.D ∪ {source}`) to
//! outside processes — or else some rumor interval stays inside the
//! destination set and the Theorem-1 bound applies. We instrument
//! collusion-tolerant CONGOS with a wiretap that counts fragment-carrying
//! envelopes crossing that border and check the per-rumor count indeed
//! grows at least linearly in `τ` (CONGOS sends each of the `τ+1` fragments
//! into a different group, so the bound is met with room to spare).

use std::collections::BTreeSet;
use std::collections::{HashMap, HashSet};

use congos::{CongosConfig, CongosMsg, CongosNode, CongosRumorId, Fragment};
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_sim::{EnvelopeRef, IdSet, Observer, ProcessId, Round};

use crate::run::{run_with_factory, RunDefaults, RunSpec};
use crate::table::Table;

/// Counts fragment batches ([`CongosMsg::fragment_batches`]: a gossip push
/// counts once per fragment payload it batches) whose sender is entitled
/// (`dest ∪ {source}`) and whose receiver is not, and tracks which distinct
/// fragments (group labels, per partition) cross the border — Theorem 12's
/// "border fragments".
struct BorderMeter {
    border: u64,
    rumors: HashSet<CongosRumorId>,
    per_rumor_receivers: HashMap<CongosRumorId, IdSet>,
    /// Distinct `(partition, group)` fragment labels received outside the
    /// entitled set, per rumor.
    border_fragments: HashMap<CongosRumorId, BTreeSet<(u16, u8)>>,
    n: usize,
}

impl BorderMeter {
    fn new(n: usize) -> Self {
        BorderMeter {
            border: 0,
            rumors: HashSet::new(),
            per_rumor_receivers: HashMap::new(),
            border_fragments: HashMap::new(),
            n,
        }
    }

    fn record(&mut self, env_src: ProcessId, env_dst: ProcessId, frags: &[Fragment]) {
        let mut crossed = false;
        for f in frags {
            self.rumors.insert(f.rid);
            let entitled_src = f.dest.contains(env_src) || f.rid.source == env_src;
            let entitled_dst = f.dest.contains(env_dst) || f.rid.source == env_dst;
            if entitled_src && !entitled_dst {
                crossed = true;
                self.per_rumor_receivers
                    .entry(f.rid)
                    .or_insert_with(|| IdSet::empty(self.n))
                    .insert(env_dst);
                self.border_fragments
                    .entry(f.rid)
                    .or_default()
                    .insert((f.partition, f.group));
            }
        }
        if crossed {
            self.border += 1;
        }
    }

    /// Mean, over rumors and partitions carrying border traffic, of the
    /// number of distinct fragment labels that crossed the border — the
    /// per-partition count Theorem 12 lower-bounds by `τ+1`.
    fn mean_border_fragments_per_partition(&self) -> f64 {
        let (mut sum, mut cnt) = (0usize, 0usize);
        for labels in self.border_fragments.values() {
            let mut per_partition: HashMap<u16, usize> = HashMap::new();
            for (ell, _) in labels {
                *per_partition.entry(*ell).or_insert(0) += 1;
            }
            for c in per_partition.values() {
                sum += *c;
                cnt += 1;
            }
        }
        if cnt == 0 {
            0.0
        } else {
            sum as f64 / cnt as f64
        }
    }
}

impl Observer<CongosNode> for BorderMeter {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, CongosMsg>) {
        for frags in env.payload.fragment_batches() {
            self.record(env.src, env.dst, frags);
        }
    }
}

/// Runs E5 and returns its table.
pub fn run(full: bool, _defaults: &RunDefaults) -> Vec<Table> {
    let n = if full { 64 } else { 32 };
    let taus: &[usize] = if full { &[1, 2, 3, 4, 6] } else { &[1, 2, 3] };
    let mut t = Table::new(
        "E5: border traffic vs tau (Theorem 12)",
        &[
            "tau",
            "rumors",
            "border_msgs",
            "border_frags/partition",
            "outside_receivers/rumor",
            "bound(tau+1)",
        ],
    );
    for &tau in taus {
        let cfg = CongosConfig::collusion_tolerant(tau, 0xE5).without_degenerate_shortcut();
        let deadline = 64u64;
        let rounds = 3 * deadline;
        let workload =
            PoissonWorkload::new(0.02, 3, deadline, 0xE5).until(Round(rounds - deadline));
        let mut meter = BorderMeter::new(n);
        run_with_factory(
            RunSpec::new(n, 0xE5 + tau as u64, rounds),
            move |id, n, _s| CongosNode::with_config(id, n, cfg.clone()),
            NoFailures,
            workload,
            &mut meter,
        );

        let rumor_count = meter.rumors.len().max(1);
        let mean_outside: f64 = meter
            .per_rumor_receivers
            .values()
            .map(|s| s.len() as f64)
            .sum::<f64>()
            / rumor_count as f64;
        let frags_per_partition = meter.mean_border_fragments_per_partition();
        // Theorem 12: a partition-based pipeline must push all τ+1
        // fragments of a partition across the border (and more than τ
        // outside receivers exist), or τ colluders could reconstruct.
        assert!(
            mean_outside >= (tau + 1) as f64,
            "tau={tau}: only {mean_outside:.1} outside receivers per rumor"
        );
        // ≈ τ+1 in expectation; a partition can fall slightly short when a
        // random group happens to lie inside the entitled set.
        assert!(
            frags_per_partition > tau as f64 + 0.5,
            "tau={tau}: only {frags_per_partition:.2} border fragments per partition"
        );
        t.row(vec![
            tau.to_string(),
            meter.rumors.len().to_string(),
            meter.border.to_string(),
            format!("{frags_per_partition:.2}"),
            format!("{mean_outside:.1}"),
            (tau + 1).to_string(),
        ]);
    }
    t.note("border_frags/partition = τ+1: every fragment crosses the border (Theorem 12)");
    t.note("border_msgs grows with τ — the Ω(nτ/dmax) per-round cost made visible");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e5_border_traffic_grows_with_tau() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        assert!(t.len() >= 2);
        // The per-partition fragment count tracks τ+1 exactly…
        let first_frags: f64 = t.cell(0, 3).parse().unwrap();
        let last_frags: f64 = t.cell(t.len() - 1, 3).parse().unwrap();
        assert!(last_frags > first_frags + 0.9, "fragment labels must grow");
        // …and the raw border-message volume grows with τ as well.
        let first_msgs: f64 = t.cell(0, 2).parse().unwrap();
        let last_msgs: f64 = t.cell(t.len() - 1, 2).parse().unwrap();
        assert!(last_msgs > 1.5 * first_msgs, "border volume must grow");
    }
}
