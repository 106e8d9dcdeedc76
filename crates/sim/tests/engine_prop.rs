//! Model-based property tests of the engine: random crash/restart/injection
//! scripts against a transparent protocol, checking the execution-model
//! invariants the paper's analysis relies on.

use congos_sim::{
    Adversary, Context, CrashSpec, Engine, EngineConfig, EnvelopeRef, Inbox, IncomingPolicy,
    Observer, ProcessId, Protocol, Round, RoundDecision, RoundView, SentPolicy, Tag,
};
use proptest::prelude::*;

/// Every process sends one tick to every process each round and reports
/// every tick received.
struct Chatty;

impl Protocol for Chatty {
    type Msg = u64;
    type Input = u64;
    type Output = (u64, ProcessId);

    fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
        Chatty
    }
    fn send(&mut self, ctx: &mut Context<'_, Self>) {
        let r = ctx.round().as_u64();
        for p in ctx.all_processes() {
            ctx.send(p, r, Tag("tick"));
        }
    }
    fn receive(&mut self, ctx: &mut Context<'_, Self>, inbox: Inbox<'_, u64>, input: Option<u64>) {
        for env in inbox {
            let src = env.src;
            let val = *env.payload;
            ctx.output((val, src));
        }
        if let Some(v) = input {
            ctx.output((v + 1_000_000, ctx.id()));
        }
    }
}

#[derive(Clone, Debug)]
enum Action {
    Crash(usize, bool),   // (victim index, deliver_sent)
    Restart(usize, bool), // (victim index, deliver_incoming)
    Inject(usize, u64),
}

/// Replays scripted actions, respecting validity (crash alive / restart
/// crashed), tracking what it actually did.
struct Scripted {
    script: Vec<(u64, Action)>,
    performed: Vec<(u64, Action)>,
}

impl Adversary<Chatty> for Scripted {
    fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<u64> {
        let now = view.round.as_u64();
        let mut d = RoundDecision::none();
        let mut touched: Vec<usize> = Vec::new();
        for (r, action) in &self.script {
            if *r != now {
                continue;
            }
            match action {
                Action::Crash(i, deliver) => {
                    let i = i % view.n();
                    if view.alive[i] && !touched.contains(&i) {
                        touched.push(i);
                        d.crashes.push(CrashSpec {
                            process: ProcessId::new(i),
                            sent: if *deliver {
                                SentPolicy::DeliverAll
                            } else {
                                SentPolicy::DropAll
                            },
                        });
                        self.performed.push((now, action.clone()));
                    }
                }
                Action::Restart(i, deliver) => {
                    let i = i % view.n();
                    if !view.alive[i] && !touched.contains(&i) {
                        touched.push(i);
                        d.restarts.push((
                            ProcessId::new(i),
                            if *deliver {
                                IncomingPolicy::DeliverAll
                            } else {
                                IncomingPolicy::DropAll
                            },
                        ));
                        self.performed.push((now, action.clone()));
                    }
                }
                Action::Inject(i, v) => {
                    let i = i % view.n();
                    if !d.injections.iter().any(|(p, _)| p.as_usize() == i) {
                        d.injections.push((ProcessId::new(i), *v));
                        self.performed.push((now, action.clone()));
                    }
                }
            }
        }
        d
    }
}

/// Observer checking per-delivery invariants and recording injections.
#[derive(Default)]
struct Invariants {
    delivered: u64,
    injected: Vec<(u64, ProcessId, u64)>,
}

impl Observer<Chatty> for Invariants {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, u64>) {
        // Messages are delivered in the round they were sent (synchrony).
        assert_eq!(*env.payload, env.round.as_u64());
        self.delivered += 1;
    }
    fn on_inject(&mut self, round: Round, process: ProcessId, input: &u64) {
        self.injected.push((round.as_u64(), process, *input));
    }
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0usize..8, any::<bool>()).prop_map(|(i, d)| Action::Crash(i, d)),
        (0usize..8, any::<bool>()).prop_map(|(i, d)| Action::Restart(i, d)),
        (0usize..8, 0u64..100).prop_map(|(i, v)| Action::Inject(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engine_invariants_hold_under_random_scripts(
        script in prop::collection::vec((0u64..12, action_strategy()), 0..40),
        seed in any::<u64>(),
    ) {
        let n = 8;
        let rounds = 12;
        let mut adv = Scripted { script, performed: Vec::new() };
        let mut inv = Invariants::default();
        let mut engine = Engine::<Chatty>::new(EngineConfig::new(n).seed(seed));
        engine.run_observed(rounds, &mut adv, &mut inv);

        // 1. The liveness log agrees with the performed script.
        let performed_crashes = adv
            .performed
            .iter()
            .filter(|(_, a)| matches!(a, Action::Crash(..)))
            .count();
        prop_assert_eq!(engine.liveness().crash_count(), performed_crashes);

        // 2. Delivered message count matches what the observer saw, and
        //    equals the engine-reported output count for ticks.
        let tick_outputs = engine
            .outputs()
            .iter()
            .filter(|o| o.value.0 < 1_000_000)
            .count() as u64;
        prop_assert_eq!(tick_outputs, inv.delivered);

        // 3. Sent-message metering: a process alive at the start of round r
        //    sends exactly n messages that round — so per-round totals are
        //    n × (alive processes at send time). Replay liveness to check.
        // 4. Injections: the engine makes a performed injection, in script
        //    order, iff its target is alive at compute time, and each one it
        //    makes is output.
        let mut alive = vec![true; n];
        let mut made = Vec::new();
        for r in 0..rounds {
            let expected: u64 = alive.iter().filter(|a| **a).count() as u64 * n as u64;
            prop_assert_eq!(
                engine.metrics().round(r).total(),
                expected,
                "round {}", r
            );
            // Apply this round's performed events for the next round.
            for (pr, action) in &adv.performed {
                if *pr == r {
                    match action {
                        Action::Crash(i, _) => alive[i % n] = false,
                        Action::Restart(i, _) => alive[i % n] = true,
                        Action::Inject(..) => {}
                    }
                }
            }
            for (pr, action) in &adv.performed {
                match action {
                    Action::Inject(i, v) if *pr == r && alive[i % n] => {
                        made.push((r, ProcessId::new(i % n), *v));
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(&inv.injected, &made);
        let injection_outputs = engine
            .outputs()
            .iter()
            .filter(|o| o.value.0 >= 1_000_000)
            .count();
        prop_assert_eq!(made.len(), injection_outputs);

        // 5. Determinism: replaying the same seed and script yields the
        //    same metrics.
        let mut adv2 = Scripted { script: adv.performed.clone(), performed: Vec::new() };
        let mut engine2 = Engine::<Chatty>::new(EngineConfig::new(n).seed(seed));
        engine2.run(rounds, &mut adv2);
        prop_assert_eq!(engine2.metrics().total(), engine.metrics().total());
    }
}
