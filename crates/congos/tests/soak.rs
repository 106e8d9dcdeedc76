//! Soak test, ignored by default: about 3 s in release on a 2-core host.
//! `scripts/ci.sh mem` runs it with
//! `cargo test --release -p congos --test soak -- --ignored`.
//!
//! A thousand rounds of continuous injection under combined churn and
//! adaptive attacks, with the auditor attached throughout, then
//! `2·deadline` idle rounds: in every round a node keeps reassembly and
//! dedup entries only of rumors within their horizon, once the last rumor
//! has expired no node, crashed or not, keeps any per-rumor state,
//! confidentiality must never break, and every admissible pair must deliver
//! on time.

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
    // Injections stop at round 960; the last 2·deadline rounds are idle,
    // so every rumor's horizon has passed before the run ends.
    let (inject_until, rounds) = (1024 - deadline, 1024 + 2 * deadline);
    let workload = PoissonWorkload::new(0.03, 3, deadline, 0x50AC).until(Round(inject_until));
    let failures = Combined {
        churn: RandomChurn::new(0.002, 0.12, 0x50AC),
        killer: ProxyKiller::new(Tag("proxy"), 1).revive_after(48),
    };
    let mut adv = CrriAdversary::new(failures, workload);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e =
        congos_sim::Engine::<CongosNode>::new(congos_sim::EngineConfig::new(n).seed(0x50AC));
    for t in (0..rounds).map(Round) {
        e.step_observed(&mut adv, &mut audit);
        // Each round's prune leaves a node entries only of rumors it is a
        // destination of whose horizon (birth + 2·deadline) has not passed,
        // and a crash drops the node's state: only live destinations count
        // towards the bound, and every slot counts towards the sum.
        let live: Vec<ProcessId> = ProcessId::all(n)
            .filter(|&p| e.liveness().alive_at_end(p, t))
            .collect();
        let recent: usize = adv
            .injections()
            .iter()
            .filter(|i| i.round + 2 * deadline >= t)
            .map(|i| i.spec.dest.iter().filter(|d| live.contains(d)).count())
            .sum();
        let retained: usize = ProcessId::all(n)
            .map(|p| e.protocol(p).census().retained_rumors)
            .sum();
        assert!(
            retained <= recent,
            "round {t}: nodes keep parts/delivered entries of {retained} (rumor, node) \
             pairs, more than the {recent} born within the last 2·deadline rounds"
        );
    }
    audit.assert_clean();

    let out = e.outputs();
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(adv.injections(), delivered, e.liveness(), e.topology());
    q.assert_on_time();
    let admissible = q.summary.admissible;
    assert!(admissible > 100, "soak workload too thin: {admissible}");
    assert!(e.liveness().crash_count() > 20);
    // Every rumor is past its horizon: no node keeps any state of one, in
    // any table.
    for p in ProcessId::all(n) {
        let census = e.protocol(p).census();
        assert!(census.is_empty(), "{p} keeps per-rumor state: {census:?}");
    }
}
