//! Long-running soak test (ignored by default — run with
//! `cargo test -p congos --test soak -- --ignored`).
//!
//! A thousand rounds of continuous injection under combined churn and
//! adaptive attacks, with the auditor attached throughout: memory must stay
//! bounded (pruning works), confidentiality must never break, and every
//! admissible pair must deliver on time.

use congos::{CongosNode, ConfidentialityAuditor};
use congos_adversary::{
    CrriAdversary, FailurePlan, PoissonWorkload, ProxyKiller, RandomChurn,
};
use congos_sim::{CrashSpec, IncomingPolicy, ProcessId, Round, RoundView, Tag};

struct Combined {
    churn: RandomChurn,
    killer: ProxyKiller,
}

impl FailurePlan for Combined {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let (mut c, mut r) = self.churn.decide_failures(view);
        let (kc, kr) = self.killer.decide_failures(view);
        for x in kc {
            if !c.iter().any(|y| y.process == x.process) {
                c.push(x);
            }
        }
        for x in kr {
            if !r.iter().any(|y| y.0 == x.0) && !c.iter().any(|y| y.process == x.0) {
                r.push(x);
            }
        }
        (c, r)
    }
}

#[test]
#[ignore = "soak test: ~1-2 minutes; run with --ignored"]
fn thousand_round_soak() {
    let n = 24;
    let deadline = 64u64;
    let rounds = 1024u64;
    let workload =
        PoissonWorkload::new(0.03, 3, deadline, 0x50AC).until(Round(rounds - deadline));
    let failures = Combined {
        churn: RandomChurn::new(0.002, 0.12, 0x50AC),
        killer: ProxyKiller::new(Tag("proxy"), 1).revive_after(48),
    };
    let mut adv = CrriAdversary::new(failures, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = congos_sim::Engine::<CongosNode>::new(
        congos_sim::EngineConfig::new(n).seed(0x50AC),
    );
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();

    // Index first deliveries once — the naive per-pair scan over outputs()
    // is quadratic and dominated the soak's post-run classification.
    let mut first_delivery: std::collections::HashMap<(u64, ProcessId), Round> =
        std::collections::HashMap::new();
    for o in e.outputs() {
        first_delivery
            .entry((o.value.wid, o.process))
            .and_modify(|r| *r = (*r).min(o.round))
            .or_insert(o.round);
    }
    let (mut admissible, mut on_time) = (0u64, 0u64);
    for entry in adv.injections() {
        let t = entry.round;
        let end = t + entry.spec.deadline;
        if !e.liveness().continuously_alive(entry.source, t, end) {
            continue;
        }
        for d in &entry.spec.dest {
            if !e.liveness().continuously_alive(*d, t, end) {
                continue;
            }
            admissible += 1;
            if first_delivery
                .get(&(entry.spec.id, *d))
                .is_some_and(|r| *r <= end)
            {
                on_time += 1;
            }
        }
    }
    assert_eq!(on_time, admissible, "QoD violated in soak");
    assert!(admissible > 100, "soak workload too thin: {admissible}");
    assert!(e.liveness().crash_count() > 20);
    // Memory bounding sanity: pending confirmations are pruned over time.
    let pending: usize = ProcessId::all(n)
        .map(|p| e.protocol(p).pending_confirmations())
        .sum();
    assert!(pending < 50, "confirmation cache leak: {pending}");
}
