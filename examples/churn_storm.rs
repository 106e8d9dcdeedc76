//! Confidential gossip through a crash/restart storm.
//!
//! Run with:
//!
//! ```text
//! cargo run --example churn_storm
//! ```
//!
//! The CRRI adversary continuously crashes and restarts processes —
//! including the *adaptive* proxy-killer attack from the paper's
//! introduction (crash a process the instant it is asked to act as a
//! proxy). Rumors keep being injected throughout. The run demonstrates the
//! paper's robustness guarantee: every rumor whose source and destination
//! stayed continuously alive is delivered by its deadline, with
//! confidentiality intact; everything else is exempt by definition.

use congos::CongosNode;
use congos_adversary::{
    qod, CrriAdversary, FailurePlan, PoissonWorkload, ProxyKiller, RandomChurn,
};
use congos_sim::{
    CrashSpec, Engine, EngineConfig, IncomingPolicy, ProcessId, Round, RoundView, Tag,
};

/// Random churn plus the adaptive proxy-killer, composed.
struct Storm {
    churn: RandomChurn,
    killer: ProxyKiller,
}

impl FailurePlan for Storm {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let (mut crashes, mut restarts) = self.churn.decide_failures(view);
        let (k_crashes, k_restarts) = self.killer.decide_failures(view);
        for c in k_crashes {
            if !crashes.iter().any(|x| x.process == c.process) {
                crashes.push(c);
            }
        }
        for r in k_restarts {
            if !restarts.iter().any(|x| x.0 == r.0) && !crashes.iter().any(|c| c.process == r.0) {
                restarts.push(r);
            }
        }
        (crashes, restarts)
    }
}

fn main() {
    let n = 24;
    let deadline = 64u64;
    let rounds = 4 * deadline;

    println!("churn storm: {n} processes, {rounds} rounds, deadline {deadline}");

    let workload = PoissonWorkload::new(0.04, 3, deadline, 11).until(Round(rounds - deadline));
    let storm = Storm {
        churn: RandomChurn::new(0.004, 0.2, 12),
        killer: ProxyKiller::new(Tag("proxy"), 1).revive_after(32),
    };
    let mut adversary = CrriAdversary::new(storm, workload);
    let mut engine = Engine::<CongosNode>::new(EngineConfig::new(n).seed(2024));
    engine.run(rounds, &mut adversary);

    let crashes = engine.liveness().crash_count();
    let kills = adversary.failures().killer.kills();
    println!("crash events: {crashes} (of which {kills} adaptive proxy-kills)");

    // Classify every (rumor, destination) pair.
    let (log, out) = (adversary.injections(), engine.outputs());
    let delivered = out.iter().map(|o| (o.value.wid, o.process, o.round));
    let q = qod::classify(log, delivered, engine.liveness(), engine.topology());
    q.assert_on_time();
    let (admissible, exempt) = (q.summary.admissible, q.summary.inadmissible);
    println!("admissible pairs : {admissible} — all delivered on time ✓");
    println!("exempt pairs     : {exempt} (crashed source/destination)");

    let mut fallbacks = 0u64;
    let mut confirmed = 0u64;
    for p in ProcessId::all(n) {
        let s = engine.protocol(p).stats();
        fallbacks += s.fallbacks;
        confirmed += s.confirmed;
    }
    println!("pipeline confirmations: {confirmed}, deadline fallbacks: {fallbacks}");
}
