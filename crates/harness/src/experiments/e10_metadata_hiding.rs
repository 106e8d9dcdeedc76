//! **E10 — Section 7 extensions: the cost of hiding metadata.**
//!
//! The paper sketches two extensions and prices them qualitatively:
//!
//! * *destination hiding* — expand each rumor into `n` same-sized
//!   singleton-destination rumors (noise for non-destinations): "without
//!   increasing the overall message complexity, but at the cost of
//!   increasing the message size (significantly)";
//! * *cover traffic* — continual injection of content-free decoys "at the
//!   cost of wasted messages".
//!
//! This experiment measures both: message counts should stay within a small
//! factor under destination hiding while payload bytes blow up by ≈ n/|D|;
//! cover traffic adds a steady message floor even with no real rumors.

use congos::{CongosConfig, CongosNode, CoverTrafficConfig};
use congos_adversary::{NoFailures, PoissonWorkload};
use congos_sim::{NullObserver, Round};

use crate::run::{run_with_factory, RunDefaults};
use crate::table::Table;

/// The system size E10 runs at.
pub fn n(full: bool) -> usize {
    if full {
        24
    } else {
        16
    }
}

/// Runs E10 and returns its table.
pub fn run(full: bool, defaults: &RunDefaults) -> Vec<Table> {
    let n = n(full);
    let deadline = 64u64;
    let rounds = 3 * deadline;
    let dest_size = 3usize;

    let mut t = Table::new(
        "E10: metadata hiding costs (Section 7 extensions)",
        &[
            "variant",
            "msgs_max/rnd",
            "msgs_total",
            "bytes_max/rnd",
            "bytes_total",
            "on_time%",
        ],
    );

    let variants: Vec<(&str, CongosConfig)> = vec![
        ("base", CongosConfig::base()),
        (
            "hide destinations",
            CongosConfig::base().hide_destinations(),
        ),
        (
            "cover traffic",
            CongosConfig::base().cover_traffic(CoverTrafficConfig {
                rate: 0.05,
                data_len: 16,
                deadline,
            }),
        ),
    ];

    let mut rows: Vec<(u64, u64)> = Vec::new(); // (msgs_total, bytes_total)
    for (name, cfg) in variants {
        let spec = defaults.spec(n, 0xE10, rounds);
        let w = PoissonWorkload::new(0.02, dest_size, deadline, 0xE10)
            .until(Round(rounds - deadline))
            .data_len(16);
        let cfg2 = cfg.clone();
        let o = run_with_factory::<CongosNode, _, _>(
            spec,
            move |id, n, _s| CongosNode::with_config(id, n, cfg2.clone()),
            NoFailures,
            w,
            &mut NullObserver,
        );
        assert!(o.qod_theorem_holds(), "{name}: {:?}", o.qod);
        rows.push((o.metrics.total(), o.metrics.total_bytes()));
        t.row(vec![
            name.to_string(),
            o.metrics.max_per_round().to_string(),
            o.metrics.total().to_string(),
            o.metrics.max_bytes_per_round().to_string(),
            o.metrics.total_bytes().to_string(),
            format!("{:.1}", 100.0 * o.qod.on_time_rate()),
        ]);
    }

    let msg_blowup = rows[1].0 as f64 / rows[0].0.max(1) as f64;
    let byte_blowup = rows[1].1 as f64 / rows[0].1.max(1) as f64;
    t.note(format!(
        "destination hiding: ×{msg_blowup:.1} messages vs ×{byte_blowup:.1} bytes \
         (paper: message complexity preserved, message size significantly larger; \
         n/|D| = {:.1})",
        n as f64 / dest_size as f64
    ));
    t.note("cover traffic adds a steady decoy floor with zero user-visible deliveries");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_bytes_blow_up_more_than_messages() {
        let tables = super::run(false, &crate::RunDefaults::default());
        let t = &tables[0];
        let base_msgs: f64 = t.cell(0, 2).parse().unwrap();
        let hide_msgs: f64 = t.cell(1, 2).parse().unwrap();
        let base_bytes: f64 = t.cell(0, 4).parse().unwrap();
        let hide_bytes: f64 = t.cell(1, 4).parse().unwrap();
        let msg_blowup = hide_msgs / base_msgs;
        let byte_blowup = hide_bytes / base_bytes;
        assert!(
            byte_blowup > 1.5 * msg_blowup,
            "bytes must grow faster than messages: ×{byte_blowup:.2} vs ×{msg_blowup:.2}"
        );
    }
}
