//! The four workloads, the seeded input generator they share, and the
//! correctness assessment applied to every measured unit.
//!
//! A *unit* is one complete execution of a workload: fresh nodes, every
//! round, every rumor's deadline elapsed. A run measures a fixed number of
//! units derived from `--seconds`, each on its own sub-seed, so the work —
//! and with it every message count — is a pure function of `(seed, seconds)`.

use std::collections::{HashMap, VecDeque};

use congos::{CongosConfig, DeliveredRumor};
use congos_adversary::{InjectionPlan, RumorSpec};
use congos_harness::experiments::e3_memory::sweep_config;
use congos_sim::{OutputRecord, ProcessId, Round, RoundView};

use crate::stats::{delivery_digest, SplitMix64};

/// Which system a workload drives, and under what conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Engine, E3m sweep configuration, failure-free.
    SimPipeline,
    /// Engine, default configuration, random crash/restart churn.
    SimChurn,
    /// Engine, collusion-tolerant configuration (τ = 2), failure-free.
    SimCollusion,
    /// Eight node threads over loopback TCP, default configuration.
    Tcp,
}

/// One workload's fixed sizes. Rumors are injected at `rate` per round for
/// `rounds - deadline` rounds, then the run drains for one deadline, so
/// every rumor's deadline elapses inside the run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub n: usize,
    pub rounds: u64,
    pub rate: usize,
    pub dests: usize,
    pub payload: usize,
    pub deadline: u64,
    /// Seconds of the `--seconds` budget one unit is charged: the budget
    /// divided by this, rounded, is the number of units a run measures. (On
    /// the 2-core reference host a simulator unit takes 3.5 to 5.5 s, a TCP
    /// unit a third of a second: four and forty units at `--seconds 16`.)
    pub budget_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_pipeline_n1024",
        kind: Kind::SimPipeline,
        n: 1024,
        rounds: 64,
        rate: 1,
        dests: 3,
        payload: 16,
        deadline: 32,
        budget_s: 4.0,
    },
    Workload {
        name: "sim_churn_n96",
        kind: Kind::SimChurn,
        n: 96,
        rounds: 128,
        rate: 1,
        dests: 3,
        payload: 16,
        deadline: 64,
        budget_s: 4.0,
    },
    Workload {
        name: "sim_collusion_n48",
        kind: Kind::SimCollusion,
        n: 48,
        rounds: 128,
        rate: 1,
        dests: 3,
        payload: 16,
        deadline: 64,
        budget_s: 4.0,
    },
    Workload {
        name: "tcp_cluster_n8",
        kind: Kind::Tcp,
        n: 8,
        rounds: 128,
        rate: 2,
        dests: 2,
        payload: 48,
        deadline: 64,
        budget_s: 0.4,
    },
];

/// Crash and restart probabilities per process per round on `sim_churn_n96`.
pub const CHURN: (f64, f64) = (0.005, 0.15);

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn inject_rounds(&self) -> u64 {
        self.rounds - self.deadline
    }

    /// Units a run of `seconds` measures (at least one).
    pub fn units_for(&self, seconds: f64) -> usize {
        ((seconds / self.budget_s).round() as usize).max(1)
    }

    /// The protocol configuration under test. The collusion variant derives
    /// its random partitions from the unit seed: they are generated input.
    pub fn config(&self, seed: u64) -> CongosConfig {
        match self.kind {
            Kind::SimPipeline => sweep_config(),
            Kind::SimChurn | Kind::Tcp => CongosConfig::default(),
            Kind::SimCollusion => {
                CongosConfig::collusion_tolerant(2, seed).without_degenerate_shortcut()
            }
        }
    }
}

/// The seed of unit `index` of a run started with `--seed seed`.
pub fn unit_seed(seed: u64, index: usize) -> u64 {
    SplitMix64(seed ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// One scheduled rumor injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Injection {
    pub round: u64,
    pub source: ProcessId,
    pub spec: RumorSpec,
}

/// Materialises the injection schedule: exactly `rate` rumors per round at
/// distinct seeded-random sources, each to `dests` distinct random
/// destinations with a random payload. A fixed rate (rather than a Poisson
/// draw) keeps the offered load equal across seeds, so seeds vary *which*
/// processes talk, not *how much* work a unit is.
pub fn schedule(w: &Workload, seed: u64) -> Vec<Injection> {
    let mut rng = SplitMix64(seed ^ 0x7a11_ab1e);
    let mut out = Vec::with_capacity(w.inject_rounds() as usize * w.rate);
    for round in 0..w.inject_rounds() {
        let sources = distinct(&mut rng, w.n, w.rate);
        for source in sources {
            let dest = distinct(&mut rng, w.n, w.dests);
            let data = (0..w.payload).map(|_| rng.next_u64() as u8).collect();
            let wid = out.len() as u64;
            out.push(Injection {
                round,
                source,
                spec: RumorSpec::new(wid, data, w.deadline, dest),
            });
        }
    }
    out
}

fn distinct(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<ProcessId> {
    let mut picked: Vec<ProcessId> = Vec::with_capacity(k);
    while picked.len() < k {
        let p = ProcessId::new(rng.below(n));
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked
}

/// Replays a materialised schedule as the engine's injection plan.
pub struct Replay(VecDeque<Injection>);

impl Replay {
    pub fn new(schedule: &[Injection]) -> Self {
        Replay(schedule.iter().cloned().collect())
    }
}

impl InjectionPlan for Replay {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        let mut due = Vec::new();
        while self
            .0
            .front()
            .is_some_and(|i| i.round == view.round.as_u64())
        {
            let i = self.0.pop_front().expect("front checked");
            due.push((i.source, i.spec));
        }
        due
    }
}

/// What one unit delivered, judged against what was injected.
#[derive(Clone, Debug, Default)]
pub struct Assessment {
    /// FNV-1a digest of the sorted `(wid, process, round)` deliveries.
    pub digest: u64,
    /// (rumor, destination) pairs whose source and destination stayed alive
    /// from injection to deadline: the operations attempted.
    pub admissible: u64,
    pub on_time: u64,
    pub late: u64,
    pub missed: u64,
    pub inadmissible: u64,
    /// Rounds from injection to first delivery, per on-time pair.
    pub latencies: Vec<f64>,
    /// Deliveries whose payload differs from the injected one.
    pub wrong_payload: u64,
    /// Deliveries at a process outside the rumor's destination set.
    pub wrong_destination: u64,
}

impl Assessment {
    pub fn failed(&self) -> u64 {
        self.late + self.missed
    }
}

/// Classifies every (rumor, destination) pair and checks every delivery.
/// `alive(p, from, to)` says whether `p` was continuously alive over the
/// inclusive round interval (always true on the failure-free workloads).
pub fn assess(
    schedule: &[Injection],
    outputs: &[OutputRecord<DeliveredRumor>],
    alive: impl Fn(ProcessId, Round, Round) -> bool,
) -> Assessment {
    let mut a = Assessment::default();
    let mut first: HashMap<(u64, ProcessId), u64> = HashMap::new();
    let mut triples = Vec::with_capacity(outputs.len());
    for o in outputs {
        let wid = o.value.wid;
        triples.push((wid, o.process.as_usize() as u64, o.round.as_u64()));
        match schedule.get(wid as usize) {
            Some(inj) => {
                a.wrong_payload += u64::from(inj.spec.data != o.value.data);
                a.wrong_destination += u64::from(!inj.spec.dest.contains(&o.process));
            }
            None => a.wrong_payload += 1, // a rumor nobody injected
        }
        first
            .entry((wid, o.process))
            .and_modify(|r| *r = (*r).min(o.round.as_u64()))
            .or_insert(o.round.as_u64());
    }
    a.digest = delivery_digest(&triples);
    for inj in schedule {
        let (from, to) = (Round(inj.round), Round(inj.round + inj.spec.deadline));
        let source_ok = alive(inj.source, from, to);
        for d in &inj.spec.dest {
            if !source_ok || !alive(*d, from, to) {
                a.inadmissible += 1;
                continue;
            }
            a.admissible += 1;
            match first.get(&(inj.spec.id, *d)) {
                Some(&r) if r <= to.as_u64() => {
                    a.on_time += 1;
                    a.latencies.push((r - inj.round) as f64);
                }
                Some(_) => a.late += 1,
                None => a.missed += 1,
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos::{CongosRumorId, DeliveryPath};

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let w = Workload::by_name("tcp_cluster_n8").unwrap();
        let a = schedule(w, 7);
        assert_eq!(a, schedule(w, 7));
        assert_ne!(a, schedule(w, 8));
        assert_eq!(a.len() as u64, w.inject_rounds() * w.rate as u64);
        for (i, inj) in a.iter().enumerate() {
            assert_eq!(inj.spec.id, i as u64);
            assert_eq!(inj.spec.dest.len(), w.dests);
            assert_eq!(inj.spec.data.len(), w.payload);
            assert!(inj.round + inj.spec.deadline < w.rounds);
        }
        // At most one injection per process per round — the model's rule.
        for pair in a.chunks(w.rate) {
            assert_ne!(pair[0].source, pair[1].source);
        }
    }

    #[test]
    fn unit_seeds_differ_and_units_follow_seconds() {
        assert_ne!(unit_seed(7, 0), unit_seed(7, 1));
        assert_ne!(unit_seed(7, 0), unit_seed(8, 0));
        let w = &WORKLOADS[0];
        assert_eq!(w.units_for(16.0), 4);
        assert_eq!(WORKLOADS[3].units_for(16.0), 40);
        assert_eq!(w.units_for(0.1), 1);
    }

    fn delivered(
        wid: u64,
        process: usize,
        round: u64,
        data: &[u8],
    ) -> OutputRecord<DeliveredRumor> {
        OutputRecord {
            round: Round(round),
            process: ProcessId::new(process),
            value: DeliveredRumor {
                wid,
                rid: CongosRumorId {
                    source: ProcessId::new(0),
                    birth: Round(0),
                    seq: 0,
                },
                data: data.to_vec(),
                via: DeliveryPath::Fragments,
            },
        }
    }

    #[test]
    fn assessment_classifies_pairs_and_flags_bad_deliveries() {
        let sched = vec![Injection {
            round: 2,
            source: ProcessId::new(0),
            spec: RumorSpec::new(
                0,
                vec![9, 9],
                10,
                vec![ProcessId::new(1), ProcessId::new(2), ProcessId::new(3)],
            ),
        }];
        let outputs = vec![
            delivered(0, 1, 7, &[9, 9]),  // on time, latency 5
            delivered(0, 1, 9, &[9, 9]),  // a later duplicate does not count
            delivered(0, 2, 13, &[9, 9]), // late: deadline round is 12
            delivered(0, 5, 4, &[9, 8]),  // wrong process and wrong payload
        ];
        let a = assess(&sched, &outputs, |_, _, _| true);
        assert_eq!((a.admissible, a.on_time, a.late, a.missed), (3, 1, 1, 1));
        assert_eq!(a.latencies, vec![5.0]);
        assert_eq!((a.wrong_payload, a.wrong_destination), (1, 1));
        // A destination that crashed exempts its pair.
        let a = assess(&sched, &outputs[..1], |p, _, _| p != ProcessId::new(2));
        assert_eq!((a.admissible, a.inadmissible, a.missed), (2, 1, 1));
    }
}
