//! Failure plans: from benign to the adaptive attacks of the paper.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use congos_sim::{CrashSpec, IncomingPolicy, ProcessId, Round, RoundView, Tag};

use crate::plan::FailurePlan;

/// No crashes, no restarts.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFailures;

impl FailurePlan for NoFailures {
    fn decide_failures(
        &mut self,
        _view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        (Vec::new(), Vec::new())
    }
}

/// Memoryless churn: each alive process crashes with probability `p_crash`
/// per round; each crashed process restarts with probability `p_restart`.
/// Processes in the protected set never crash (used to keep a rumor's source
/// and destinations admissible while the rest of the system churns).
#[derive(Clone, Debug)]
pub struct RandomChurn {
    p_crash: f64,
    p_restart: f64,
    protected: Vec<ProcessId>,
    rng: SmallRng,
}

impl RandomChurn {
    /// Creates churn with the given per-round probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_crash: f64, p_restart: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_crash), "p_crash in [0,1]");
        assert!((0.0..=1.0).contains(&p_restart), "p_restart in [0,1]");
        RandomChurn {
            p_crash,
            p_restart,
            protected: Vec::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0xc4a5_4e57),
        }
    }

    /// Marks processes that must never crash.
    pub fn protect<I: IntoIterator<Item = ProcessId>>(mut self, ids: I) -> Self {
        self.protected.extend(ids);
        self
    }
}

impl FailurePlan for RandomChurn {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let mut crashes = Vec::new();
        let mut restarts = Vec::new();
        for i in 0..view.n() {
            let p = ProcessId::new(i);
            if view.alive[i] {
                if !self.protected.contains(&p) && self.rng.gen_bool(self.p_crash) {
                    crashes.push(CrashSpec::dropping(p));
                }
            } else if self.rng.gen_bool(self.p_restart) {
                restarts.push((p, IncomingPolicy::DropAll));
            }
        }
        (crashes, restarts)
    }
}

/// An oblivious, precomputed crash/restart script.
#[derive(Clone, Debug, Default)]
pub struct ScheduledChurn {
    crashes: Vec<(Round, ProcessId)>,
    restarts: Vec<(Round, ProcessId)>,
}

impl ScheduledChurn {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a crash of `p` at round `t`.
    pub fn crash_at(mut self, t: Round, p: ProcessId) -> Self {
        self.crashes.push((t, p));
        self
    }

    /// Schedules a restart of `p` at round `t`.
    pub fn restart_at(mut self, t: Round, p: ProcessId) -> Self {
        self.restarts.push((t, p));
        self
    }
}

impl FailurePlan for ScheduledChurn {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let t = view.round;
        let crashes = self
            .crashes
            .iter()
            .filter(|(r, p)| *r == t && view.alive[p.as_usize()])
            .map(|(_, p)| CrashSpec::dropping(*p))
            .collect();
        let restarts = self
            .restarts
            .iter()
            .filter(|(r, p)| *r == t && !view.alive[p.as_usize()])
            .map(|(_, p)| (*p, IncomingPolicy::DropAll))
            .collect();
        (crashes, restarts)
    }
}

/// The adaptive attack the Proxy service is designed to survive: *"every
/// time a source sends a rumor (or rumor fragment) to another process, the
/// adversary may choose to immediately crash that recipient"* (Section 1).
///
/// `ProxyKiller` watches the round's outboxes for messages with the given
/// tag and crashes up to `budget` of their receivers per round, before they
/// can act. Optionally restarts victims `revive_after` rounds later so the
/// system never runs out of processes.
#[derive(Clone, Debug)]
pub struct ProxyKiller {
    tag: Tag,
    budget: usize,
    protected: Vec<ProcessId>,
    revive_after: Option<u64>,
    pending_revival: Vec<(Round, ProcessId)>,
    kills: u64,
}

impl ProxyKiller {
    /// Kills up to `budget` receivers of `tag`-tagged messages per round.
    pub fn new(tag: Tag, budget: usize) -> Self {
        ProxyKiller {
            tag,
            budget,
            protected: Vec::new(),
            revive_after: None,
            pending_revival: Vec::new(),
            kills: 0,
        }
    }

    /// Marks processes that must never crash.
    pub fn protect<I: IntoIterator<Item = ProcessId>>(mut self, ids: I) -> Self {
        self.protected.extend(ids);
        self
    }

    /// Restart victims after the given number of rounds.
    pub fn revive_after(mut self, rounds: u64) -> Self {
        self.revive_after = Some(rounds);
        self
    }

    /// Total kills so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }
}

impl FailurePlan for ProxyKiller {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let mut victims: Vec<ProcessId> = Vec::new();
        for m in view.outbox.iter() {
            if m.tag == self.tag
                && view.alive[m.dst.as_usize()]
                && !self.protected.contains(&m.dst)
                && !victims.contains(&m.dst)
            {
                victims.push(m.dst);
                if victims.len() >= self.budget {
                    break;
                }
            }
        }
        self.kills += victims.len() as u64;
        if let Some(delay) = self.revive_after {
            for v in &victims {
                self.pending_revival.push((view.round + delay, *v));
            }
        }
        let mut restarts = Vec::new();
        self.pending_revival.retain(|(when, p)| {
            // Restart when due, provided the process is (still) crashed and
            // is not also being crashed this very round.
            if *when <= view.round && !view.alive[p.as_usize()] && !victims.contains(p) {
                restarts.push((*p, IncomingPolicy::DropAll));
                false
            } else {
                *when > view.round || victims.contains(p)
            }
        });
        // Victims crash *with their inbox*: they never get to cache the
        // proxy request (SentPolicy concerns their own sends, all dropped).
        let crashes = victims.into_iter().map(CrashSpec::dropping).collect();
        (crashes, restarts)
    }
}

/// Crashes every process of one group of a bit-partition at a given round —
/// the attack that makes a single partition insufficient and motivates the
/// `log n` partitions of Section 4.2.
#[derive(Clone, Debug)]
pub struct GroupAnnihilator {
    ell: u32,
    bit: u8,
    at: Round,
    protected: Vec<ProcessId>,
}

impl GroupAnnihilator {
    /// Crashes, at round `at`, every process whose `ell`-th id bit equals
    /// `bit`.
    pub fn new(ell: u32, bit: u8, at: Round) -> Self {
        GroupAnnihilator {
            ell,
            bit,
            at,
            protected: Vec::new(),
        }
    }

    /// Marks processes that must never crash.
    pub fn protect<I: IntoIterator<Item = ProcessId>>(mut self, ids: I) -> Self {
        self.protected.extend(ids);
        self
    }
}

impl FailurePlan for GroupAnnihilator {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        if view.round != self.at {
            return (Vec::new(), Vec::new());
        }
        let crashes = view
            .alive_ids()
            .filter(|p| p.bit(self.ell) == self.bit && !self.protected.contains(p))
            .map(CrashSpec::dropping)
            .collect();
        (crashes, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::message::SendColumns;
    use congos_sim::{OutboxColumns, OutboxView};

    fn view<'a>(round: u64, alive: &'a [bool], outbox: &'a OutboxColumns<()>) -> RoundView<'a> {
        RoundView {
            round: Round(round),
            alive,
            outbox: outbox.view(),
        }
    }

    /// A view of a round in which nothing was sent.
    fn quiet(round: u64, alive: &[bool]) -> RoundView<'_> {
        RoundView {
            round: Round(round),
            alive,
            outbox: OutboxView::default(),
        }
    }

    /// An outbox of `(src, dst, tag)` messages, each in a slot of its own.
    fn columns(msgs: &[(usize, usize, &'static str)]) -> OutboxColumns<()> {
        let mut cols = OutboxColumns::new();
        for &(src, dst, tag) in msgs {
            cols.push(ProcessId::new(src), ProcessId::new(dst), Tag(tag), ());
        }
        cols
    }

    #[test]
    fn random_churn_respects_protection() {
        let alive = vec![true; 50];
        let mut churn = RandomChurn::new(1.0, 0.0, 1).protect(ProcessId::all(10));
        let (crashes, _) = churn.decide_failures(&quiet(0, &alive));
        assert_eq!(crashes.len(), 40);
        assert!(crashes.iter().all(|c| c.process.as_usize() >= 10));
    }

    #[test]
    fn random_churn_restarts_crashed() {
        let mut alive = vec![true; 4];
        alive[2] = false;
        let mut churn = RandomChurn::new(0.0, 1.0, 1);
        let (crashes, restarts) = churn.decide_failures(&quiet(0, &alive));
        assert!(crashes.is_empty());
        assert_eq!(restarts.len(), 1);
        assert_eq!(restarts[0].0, ProcessId::new(2));
    }

    #[test]
    fn scheduled_churn_fires_on_time_and_checks_state() {
        let mut sched = ScheduledChurn::new()
            .crash_at(Round(1), ProcessId::new(0))
            .restart_at(Round(2), ProcessId::new(0));
        let alive = vec![true; 2];
        let dead = vec![false, true];
        assert!(sched.decide_failures(&quiet(0, &alive)).0.is_empty());
        assert_eq!(sched.decide_failures(&quiet(1, &alive)).0.len(), 1);
        // Restart only applies if actually crashed.
        assert_eq!(sched.decide_failures(&quiet(2, &dead)).1.len(), 1);
        let mut sched2 = ScheduledChurn::new().restart_at(Round(2), ProcessId::new(0));
        assert!(sched2.decide_failures(&quiet(2, &alive)).1.is_empty());
    }

    #[test]
    fn proxy_killer_targets_tagged_receivers() {
        let alive = vec![true; 4];
        let outbox = columns(&[
            (0, 1, "proxy_request"),
            (0, 2, "other"),
            (0, 3, "proxy_request"),
        ]);
        let mut killer = ProxyKiller::new(Tag("proxy_request"), 10);
        let (crashes, _) = killer.decide_failures(&view(0, &alive, &outbox));
        let victims: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims, vec![1, 3]);
        assert_eq!(killer.kills(), 2);
    }

    #[test]
    fn proxy_killer_sees_every_target_of_a_shared_payload() {
        let alive = vec![true; 5];
        let mut sent = SendColumns::default();
        sent.push(ProcessId::new(4), Tag("other"), ());
        sent.push_each(ProcessId::all(4).skip(1), Tag("proxy_request"), ());
        let mut outbox = OutboxColumns::new();
        outbox.append_from(ProcessId::new(0), &mut sent);
        let mut killer = ProxyKiller::new(Tag("proxy_request"), 10);
        let (crashes, _) = killer.decide_failures(&view(0, &alive, &outbox));
        let victims: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims, vec![1, 2, 3]);
    }

    #[test]
    fn proxy_killer_budget_and_revival() {
        let alive = vec![true; 4];
        let outbox = columns(&[(0, 1, "p"), (0, 2, "p")]);
        let mut killer = ProxyKiller::new(Tag("p"), 1).revive_after(2);
        let (crashes, _) = killer.decide_failures(&view(0, &alive, &outbox));
        assert_eq!(crashes.len(), 1);
        // Two rounds later the victim is revived.
        let mut dead = vec![true; 4];
        dead[1] = false;
        let (_, restarts) = killer.decide_failures(&quiet(2, &dead));
        assert_eq!(restarts, vec![(ProcessId::new(1), IncomingPolicy::DropAll)]);
    }

    #[test]
    fn group_annihilator_kills_exactly_one_side() {
        let alive = vec![true; 8];
        let mut ann = GroupAnnihilator::new(1, 0, Round(3));
        assert!(ann.decide_failures(&quiet(0, &alive)).0.is_empty());
        let (crashes, _) = ann.decide_failures(&quiet(3, &alive));
        // ids with bit 1 == 0: 0,1,4,5
        let victims: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims, vec![0, 1, 4, 5]);
    }
}

/// Eclipse attack: adaptively crash any process observed *sending to* the
/// victim, for a window of rounds — an attempt to cut one destination off
/// from the collaboration while leaving it (and the source) alive. QoD must
/// still hold: the deadline fallback goes straight from the source, and the
/// attacker cannot crash the continuously-alive source without exempting
/// the rumor.
#[derive(Clone, Debug)]
pub struct Eclipse {
    victim: ProcessId,
    until: Round,
    budget_per_round: usize,
    protected: Vec<ProcessId>,
    kills: u64,
}

impl Eclipse {
    /// Eclipses `victim` until round `until` (exclusive), crashing up to
    /// `budget_per_round` of its correspondents each round.
    pub fn new(victim: ProcessId, until: Round, budget_per_round: usize) -> Self {
        Eclipse {
            victim,
            until,
            budget_per_round,
            protected: Vec::new(),
            kills: 0,
        }
    }

    /// Marks processes that must never crash (typically the source, so the
    /// rumor stays admissible).
    pub fn protect<I: IntoIterator<Item = ProcessId>>(mut self, ids: I) -> Self {
        self.protected.extend(ids);
        self
    }

    /// Total kills so far.
    pub fn kills(&self) -> u64 {
        self.kills
    }
}

impl FailurePlan for Eclipse {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        if view.round >= self.until {
            return (Vec::new(), Vec::new());
        }
        let mut victims: Vec<ProcessId> = Vec::new();
        for m in view.outbox.iter() {
            if m.dst == self.victim
                && m.src != self.victim
                && view.alive[m.src.as_usize()]
                && !self.protected.contains(&m.src)
                && !victims.contains(&m.src)
            {
                victims.push(m.src);
                if victims.len() >= self.budget_per_round {
                    break;
                }
            }
        }
        self.kills += victims.len() as u64;
        (
            victims.into_iter().map(CrashSpec::dropping).collect(),
            Vec::new(),
        )
    }
}

/// Rolling-wave churn: crashes a sliding window of `width` consecutive ids
/// every `period` rounds and restarts the previous wave — the whole system
/// flaps, but no process is down for more than a window.
#[derive(Clone, Debug)]
pub struct RollingWaves {
    width: usize,
    period: u64,
    protected: Vec<ProcessId>,
}

impl RollingWaves {
    /// Creates waves of `width` processes every `period` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or `width == 0`.
    pub fn new(width: usize, period: u64) -> Self {
        assert!(period > 0 && width > 0);
        RollingWaves {
            width,
            period,
            protected: Vec::new(),
        }
    }

    /// Marks processes that must never crash.
    pub fn protect<I: IntoIterator<Item = ProcessId>>(mut self, ids: I) -> Self {
        self.protected.extend(ids);
        self
    }

    fn wave(&self, k: u64, n: usize) -> Vec<ProcessId> {
        (0..self.width)
            .map(|j| ProcessId::new(((k as usize * self.width) + j) % n))
            .filter(|p| !self.protected.contains(p))
            .collect()
    }
}

impl FailurePlan for RollingWaves {
    fn decide_failures(
        &mut self,
        view: &RoundView<'_>,
    ) -> (Vec<CrashSpec>, Vec<(ProcessId, IncomingPolicy)>) {
        let t = view.round.as_u64();
        if t == 0 || t % self.period != 0 {
            return (Vec::new(), Vec::new());
        }
        let k = t / self.period;
        let n = view.n();
        let crashes = self
            .wave(k, n)
            .into_iter()
            .filter(|p| view.alive[p.as_usize()])
            .map(CrashSpec::dropping)
            .collect();
        let restarts = self
            .wave(k - 1, n)
            .into_iter()
            .filter(|p| !view.alive[p.as_usize()])
            .map(|p| (p, IncomingPolicy::DropAll))
            .collect();
        (crashes, restarts)
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use congos_sim::{OutboxColumns, OutboxView};

    fn view<'a>(round: u64, alive: &'a [bool], outbox: &'a OutboxColumns<()>) -> RoundView<'a> {
        RoundView {
            round: Round(round),
            alive,
            outbox: outbox.view(),
        }
    }

    /// A view of a round in which nothing was sent.
    fn quiet(round: u64, alive: &[bool]) -> RoundView<'_> {
        RoundView {
            round: Round(round),
            alive,
            outbox: OutboxView::default(),
        }
    }

    /// An outbox of `(src, dst, tag)` messages, each in a slot of its own.
    fn columns(msgs: &[(usize, usize, &'static str)]) -> OutboxColumns<()> {
        let mut cols = OutboxColumns::new();
        for &(src, dst, tag) in msgs {
            cols.push(ProcessId::new(src), ProcessId::new(dst), Tag(tag), ());
        }
        cols
    }

    #[test]
    fn eclipse_crashes_victims_correspondents_only() {
        let alive = vec![true; 5];
        let outbox = columns(&[(1, 0, "x"), (2, 3, "x"), (4, 0, "x")]);
        let mut e = Eclipse::new(ProcessId::new(0), Round(10), 8).protect([ProcessId::new(4)]);
        let (crashes, _) = e.decide_failures(&view(0, &alive, &outbox));
        let victims: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims, vec![1], "p2 talks elsewhere, p4 protected");
        assert_eq!(e.kills(), 1);
        // After the window the attack stops.
        let (crashes, _) = e.decide_failures(&view(10, &alive, &outbox));
        assert!(crashes.is_empty());
    }

    #[test]
    fn rolling_waves_flap_disjoint_windows() {
        let alive = vec![true; 9];
        let mut w = RollingWaves::new(3, 8);
        assert!(w.decide_failures(&quiet(0, &alive)).0.is_empty());
        assert!(w.decide_failures(&quiet(5, &alive)).0.is_empty());
        let (crashes, restarts) = w.decide_failures(&quiet(8, &alive));
        let victims: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims, vec![3, 4, 5], "wave 1");
        assert!(restarts.is_empty(), "wave 0 never crashed (t=0 skipped)");
        // Next wave crashes 6..9 and restarts 3..6 (now dead).
        let mut alive2 = vec![true; 9];
        for v in &victims {
            alive2[*v] = false;
        }
        let (crashes, restarts) = w.decide_failures(&quiet(16, &alive2));
        let victims2: Vec<usize> = crashes.iter().map(|c| c.process.as_usize()).collect();
        assert_eq!(victims2, vec![6, 7, 8]);
        let returned: Vec<usize> = restarts.iter().map(|(p, _)| p.as_usize()).collect();
        assert_eq!(returned, vec![3, 4, 5]);
    }
}
