//! Composable failure and injection plans, and the composite CRRI adversary.

use congos_sim::{
    Adversary, CrashSpec, IncomingPolicy, ProcessId, Protocol, RoundDecision, RoundView,
};

use crate::workload::{InjectionLogEntry, RumorSpec};

/// Decides crashes and restarts each round, after seeing the round's
/// outboxes (so implementations may be fully adaptive).
pub trait FailurePlan {
    /// Crash/restart decisions for this round. Implementations must respect
    /// the model: crash only alive processes, restart only crashed ones, at
    /// most one liveness event per process per round.
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>);
}

/// Decides rumor injections each round (at most one per process per round).
pub trait InjectionPlan {
    /// Rumors to inject this round.
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)>;
}

/// The composite CRRI adversary: a failure plan plus an injection plan plus
/// a conversion from [`RumorSpec`] into the protocol's input type. It keeps
/// the one record of the injections its plan emitted, against which
/// Quality of Delivery is judged.
///
/// ```
/// use congos_adversary::{CrriAdversary, NoFailures, NoInjections};
/// // An adversary for any protocol whose Input: From<RumorSpec>:
/// let _adv = CrriAdversary::new(NoFailures, NoInjections);
/// ```
#[derive(Clone, Debug)]
pub struct CrriAdversary<F, W> {
    failures: F,
    workload: W,
    injections: Vec<InjectionLogEntry>,
}

impl<F: FailurePlan, W: InjectionPlan> CrriAdversary<F, W> {
    /// Combines a failure plan and an injection plan.
    pub fn new(failures: F, workload: W) -> Self {
        CrriAdversary {
            failures,
            workload,
            injections: Vec::new(),
        }
    }

    /// Access to the failure plan (e.g. to read attack statistics).
    pub fn failures(&self) -> &F {
        &self.failures
    }

    /// Every injection the plan emitted so far, in emission order. An
    /// injection at a process crashed in the same round is listed, though
    /// the engine never makes it: its source is not continuously alive, so
    /// QoD exempts it.
    pub fn injections(&self) -> &[InjectionLogEntry] {
        &self.injections
    }
}

impl<P, F, W> Adversary<P> for CrriAdversary<F, W>
where
    P: Protocol,
    P::Input: From<RumorSpec>,
    F: FailurePlan,
    W: InjectionPlan,
{
    fn decide(&mut self, view: &RoundView<'_>) -> RoundDecision<P::Input> {
        let (crashes, restarts) = self.failures.decide_failures(view);
        let emitted = self.workload.decide_injections(view);
        self.injections
            .extend(emitted.iter().map(|(source, spec)| InjectionLogEntry {
                round: view.round,
                source: *source,
                spec: spec.clone(),
            }));
        // Injections may only target alive processes; the plan sees the
        // pre-crash liveness, so drop targets crashed this very round.
        let crashed_now: Vec<ProcessId> = crashes.iter().map(|c| c.process).collect();
        let restarted_now: Vec<ProcessId> = restarts.iter().map(|(p, _)| *p).collect();
        let injections = emitted
            .into_iter()
            .filter(|(p, _)| {
                let alive = view.alive[p.as_usize()];
                (alive && !crashed_now.contains(p)) || restarted_now.contains(p)
            })
            .map(|(p, spec)| (p, P::Input::from(spec)))
            .collect();
        RoundDecision {
            crashes,
            restarts,
            injections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::{NoFailures, ScheduledChurn};
    use crate::workload::{NoInjections, OneShot, RumorSpec};
    use congos_sim::{Context, Engine, EngineConfig, Inbox, Round};

    /// Minimal protocol that records injected specs as outputs.
    struct Sink;
    impl Protocol for Sink {
        type Msg = ();
        type Input = RumorSpec;
        type Output = u64;
        fn new(_id: ProcessId, _n: usize, _seed: u64) -> Self {
            Sink
        }
        fn send(&mut self, _ctx: &mut Context<'_, Self>) {}
        fn receive(
            &mut self,
            ctx: &mut Context<'_, Self>,
            _inbox: Inbox<'_, ()>,
            input: Option<RumorSpec>,
        ) {
            if let Some(spec) = input {
                ctx.output(spec.id);
            }
        }
    }

    #[test]
    fn composite_injects_at_the_scheduled_round() {
        let spec = RumorSpec::new(42, vec![1, 2, 3], 64, vec![ProcessId::new(1)]);
        let mut adv = CrriAdversary::new(
            NoFailures,
            OneShot::new(Round(2), vec![(ProcessId::new(0), spec)]),
        );
        let mut e = Engine::<Sink>::new(EngineConfig::new(4));
        e.run(4, &mut adv);
        assert_eq!(e.outputs().len(), 1);
        assert_eq!(e.outputs()[0].round, Round(2));
        assert_eq!(e.outputs()[0].value, 42);
        assert_eq!(adv.injections().len(), 1);
        assert_eq!(adv.injections()[0].round, Round(2));
    }

    #[test]
    fn an_injection_at_a_process_crashed_that_round_is_logged_not_made() {
        let spec = |id| RumorSpec::new(id, vec![id as u8], 8, vec![ProcessId::new(3)]);
        let mut adv = CrriAdversary::new(
            ScheduledChurn::new().crash_at(Round(1), ProcessId::new(1)),
            OneShot::new(
                Round(1),
                vec![(ProcessId::new(0), spec(7)), (ProcessId::new(1), spec(8))],
            ),
        );
        let mut e = Engine::<Sink>::new(EngineConfig::new(4));
        e.run(3, &mut adv);
        let logged: Vec<_> = adv
            .injections()
            .iter()
            .map(|i| (i.round, i.source, i.spec.id))
            .collect();
        assert_eq!(
            logged,
            [
                (Round(1), ProcessId::new(0), 7),
                (Round(1), ProcessId::new(1), 8)
            ],
            "the log holds what the plan emitted, crashed source included"
        );
        let made: Vec<_> = e.outputs().iter().map(|o| (o.process, o.value)).collect();
        assert_eq!(
            made,
            [(ProcessId::new(0), 7)],
            "the crashed source injects nothing"
        );
    }

    #[test]
    fn no_failures_no_injections_is_inert() {
        let mut adv = CrriAdversary::new(NoFailures, NoInjections);
        let mut e = Engine::<Sink>::new(EngineConfig::new(4));
        e.run(4, &mut adv);
        assert!(e.outputs().is_empty());
        assert!(adv.injections().is_empty());
        assert_eq!(e.liveness().crash_count(), 0);
    }
}
