//! Running harness workloads on the networked (TCP cluster) backend.
//!
//! The engine feeds adversary plans a live [`RoundView`] every round; a TCP
//! cluster cannot (nodes are independent processes/threads with no
//! lock-step oracle). The bridge is *materialization*: dry-run the
//! injection plan against a synthetic failure-free view — every process
//! alive, outboxes unseen — to extract a static `(round, source, spec)`
//! schedule, then hand that schedule to the cluster runtime.
//!
//! Materialization is faithful exactly for **oblivious** workloads: plans
//! that decide from `(round, rng)` alone, like the stock `OneShot` /
//! `PoissonWorkload` / `Theorem1Workload` generators. A plan that adapts to
//! `view.outbox` or to crashes would see a different trajectory; the
//! networked backend is failure-free by construction (an adaptive adversary
//! must see a round's outboxes before anything is delivered — a lock-step
//! construct no socket runtime can offer), and [`assert_failure_free`]
//! rejects failure plans that try to schedule anything.

use congos_adversary::{FailurePlan, InjectionPlan, RumorSpec};
use congos_sim::{ProcessId, Round, RoundView};

/// One materialized injection: round, source process, and the spec.
pub type ScheduledInjection = (u64, ProcessId, RumorSpec);

/// Dry-runs `workload` for `rounds` rounds against a synthetic failure-free
/// view (all `n` processes alive, no outbox visibility) and returns the
/// static injection schedule it produces. The plan's log fills in as a side
/// effect, so QoD accounting can use `Logged::entries` afterwards exactly
/// as the engine path does.
pub fn materialize_injections<W: InjectionPlan>(
    n: usize,
    rounds: u64,
    workload: &mut W,
) -> Vec<ScheduledInjection> {
    let alive = vec![true; n];
    let mut schedule = Vec::new();
    for r in 0..rounds {
        let view = RoundView {
            round: Round(r),
            alive: &alive,
            outbox: &[],
        };
        for (source, spec) in workload.decide_injections(&view) {
            schedule.push((r, source, spec));
        }
    }
    schedule
}

/// Dry-runs `failures` against the same synthetic view and panics if the
/// plan ever schedules a crash or restart: the networked backend is
/// failure-free, and silently dropping a failure plan would misreport an
/// experiment as having survived churn it never saw.
///
/// # Panics
///
/// Panics if the plan emits any crash or restart within `rounds` rounds.
pub fn assert_failure_free<F: FailurePlan>(n: usize, rounds: u64, failures: &mut F) {
    let alive = vec![true; n];
    for r in 0..rounds {
        let view = RoundView {
            round: Round(r),
            alive: &alive,
            outbox: &[],
        };
        let (crashes, restarts) = failures.decide_failures(&view);
        assert!(
            crashes.is_empty() && restarts.is_empty(),
            "the networked backend is failure-free, but the failure plan \
             scheduled {} crash(es) and {} restart(s) at round {r}; run \
             failure experiments on the in-process engine",
            crashes.len(),
            restarts.len(),
        );
    }
}

/// What a networked protocol run reports back to the harness: deliveries in
/// the engine's output shape plus the transport's own counters.
#[derive(Clone, Debug, Default)]
pub struct NetRunReport {
    /// Deliveries as `(wid, process, round)`.
    pub deliveries: Vec<(u64, ProcessId, Round)>,
    /// Protocol messages sent over sockets (self-deliveries excluded).
    pub messages: u64,
    /// Outbound messages dropped by the topology gate.
    pub topology_drops: u64,
    /// Observing-coalition sightings `(round, observer, sender, tag)` from
    /// the watched nodes (empty when no coalition was attached).
    pub sightings: Vec<(Round, ProcessId, ProcessId, congos_sim::Tag)>,
}

/// Socket-level counters of a networked run, attached to
/// [`RunOutcome`](crate::run::RunOutcome) when the run executed over TCP.
/// The in-process engine meters per-round, per-tag instead (see
/// `RunOutcome::metrics`); sockets only see whole frames, so the networked
/// backend reports these coarser totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Protocol messages sent over sockets (self-deliveries excluded).
    pub messages: u64,
    /// Outbound messages dropped by the topology gate.
    pub topology_drops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_adversary::{NoFailures, OneShot, PoissonWorkload, RandomChurn};
    use crate::run::Logged;

    #[test]
    fn materializes_oneshot_and_fills_log() {
        let spec = RumorSpec::new(7, vec![1, 2], 32, vec![ProcessId::new(2)]);
        let mut w = OneShot::new(Round(3), vec![(ProcessId::new(0), spec.clone())]);
        let schedule = materialize_injections(4, 10, &mut w);
        assert_eq!(schedule, vec![(3, ProcessId::new(0), spec)]);
        assert_eq!(w.entries().len(), 1);
        assert_eq!(w.entries()[0].round, Round(3));
    }

    #[test]
    fn materialized_poisson_matches_engine_trajectory() {
        // Poisson is oblivious (round + rng only), so materializing it must
        // produce the identical schedule a failure-free engine run sees.
        let mk = || PoissonWorkload::new(0.2, 2, 16, 5).until(Round(12));
        let mut a = mk();
        let mut b = mk();
        let sched_a = materialize_injections(6, 20, &mut a);
        let sched_b = materialize_injections(6, 20, &mut b);
        assert_eq!(sched_a, sched_b, "materialization is deterministic");
        assert!(!sched_a.is_empty(), "rate 0.2 over 6x12 should inject");
        assert_eq!(a.entries().len(), sched_a.len());
    }

    #[test]
    fn failure_free_plans_pass() {
        assert_failure_free(8, 50, &mut NoFailures);
    }

    #[test]
    #[should_panic(expected = "failure-free")]
    fn churn_plans_are_rejected() {
        // High-rate churn over plenty of rounds is certain to schedule.
        assert_failure_free(16, 200, &mut RandomChurn::new(0.5, 0.0, 1));
    }
}
