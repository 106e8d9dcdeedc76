//! Soak test, ignored by default: about 3 s in release on a 2-core host.
//! `scripts/ci.sh mem` runs it with
//! `cargo test --release -p congos --test soak -- --ignored`.
//!
//! A thousand rounds of continuous injection under combined churn and
//! adaptive attacks, with the auditor attached throughout: memory must stay
//! bounded (pruning works), confidentiality must never break, and every
//! admissible pair must deliver on time.

use congos::{ConfidentialityAuditor, CongosNode};
use congos_adversary::{
    qod, CrriAdversary, FailurePlan, PoissonWorkload, ProxyKiller, RandomChurn,
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
#[ignore = "soak test: ~3 s in release; run with --release -- --ignored"]
fn thousand_round_soak() {
    let n = 24;
    let deadline = 64u64;
    let rounds = 1024u64;
    let workload = PoissonWorkload::new(0.03, 3, deadline, 0x50AC).until(Round(rounds - deadline));
    let failures = Combined {
        churn: RandomChurn::new(0.002, 0.12, 0x50AC),
        killer: ProxyKiller::new(Tag("proxy"), 1).revive_after(48),
    };
    let mut adv = CrriAdversary::new(failures, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e =
        congos_sim::Engine::<CongosNode>::new(congos_sim::EngineConfig::new(n).seed(0x50AC));
    e.run_observed(rounds, &mut adv, &mut audit);
    audit.assert_clean();

    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_on_time();
    let admissible = q.summary.admissible;
    assert!(admissible > 100, "soak workload too thin: {admissible}");
    assert!(e.liveness().crash_count() > 20);
    // Memory bounding sanity: pending confirmations are pruned over time.
    let pending: usize = ProcessId::all(n)
        .map(|p| e.protocol(p).pending_confirmations())
        .sum();
    assert!(pending < 50, "confirmation cache leak: {pending}");
    // Round 1023's prune leaves a node entries only of rumors it is a
    // destination of whose horizon (birth + 2·deadline) has not passed. A
    // crashed node does not prune, so only the live ones are counted.
    let last = Round(rounds - 1);
    let live: Vec<ProcessId> = ProcessId::all(n)
        .filter(|&p| e.liveness().alive_at_end(p, last))
        .collect();
    let recent: usize = adv
        .injections()
        .iter()
        .filter(|i| i.round + 2 * deadline >= last)
        .map(|i| i.spec.dest.iter().filter(|d| live.contains(d)).count())
        .sum();
    let retained: usize = live.iter().map(|&p| e.protocol(p).retained_rumors()).sum();
    assert!(
        retained <= recent,
        "live nodes keep parts/delivered entries of {retained} (rumor, node) pairs, \
         more than the {recent} born within the last 2·deadline rounds"
    );
}
