//! Rumor-injection workloads.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use congos_sim::{ProcessId, Round, RoundView};

use crate::plan::InjectionPlan;

/// A protocol-agnostic description of a rumor to inject: payload bytes, a
/// deadline in rounds, and a destination set. Protocol crates convert this
/// into their own rumor type via `From<RumorSpec>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RumorSpec {
    /// Workload-unique rumor identifier, used to correlate injections with
    /// deliveries in experiments.
    pub id: u64,
    /// The confidential payload `ρ.z`.
    pub data: Vec<u8>,
    /// Deadline duration `ρ.d` in rounds.
    pub deadline: u64,
    /// Destination set `ρ.D` (sorted, deduplicated).
    pub dest: Vec<ProcessId>,
}

impl RumorSpec {
    /// Creates a spec, normalizing the destination set.
    pub fn new(id: u64, data: Vec<u8>, deadline: u64, mut dest: Vec<ProcessId>) -> Self {
        dest.sort_unstable();
        dest.dedup();
        RumorSpec {
            id,
            data,
            deadline,
            dest,
        }
    }
}

/// Record of an injection a workload has emitted, kept by
/// [`CrriAdversary`](crate::CrriAdversary) for
/// [`qod::classify`](crate::qod::classify).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionLogEntry {
    /// Round of injection.
    pub round: Round,
    /// Source process.
    pub source: ProcessId,
    /// The injected spec.
    pub spec: RumorSpec,
}

/// Workload that injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInjections;

impl InjectionPlan for NoInjections {
    fn decide_injections(&mut self, _view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        Vec::new()
    }
}

/// Injects a fixed batch of rumors at one round.
#[derive(Clone, Debug)]
pub struct OneShot {
    round: Round,
    batch: Vec<(ProcessId, RumorSpec)>,
}

impl OneShot {
    /// Injects `batch` at `round`.
    pub fn new(round: Round, batch: Vec<(ProcessId, RumorSpec)>) -> Self {
        OneShot { round, batch }
    }
}

impl InjectionPlan for OneShot {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        if view.round != self.round {
            return Vec::new();
        }
        std::mem::take(&mut self.batch)
    }
}

/// Continuous injection: each round, each alive process independently
/// injects a rumor with probability `rate`, targeting a fresh uniformly
/// random destination set of size `dest_size` (resampled per rumor — the
/// "rapidly changing groups" regime where the paper argues cryptographic
/// schemes struggle).
#[derive(Clone, Debug)]
pub struct PoissonWorkload {
    rate: f64,
    dest_size: usize,
    deadline: u64,
    data_len: usize,
    rng: SmallRng,
    next_id: u64,
    until: Option<Round>,
}

impl PoissonWorkload {
    /// Creates a continuous workload; `rate` is the per-process per-round
    /// injection probability (≤ 1: at most one rumor per process per round,
    /// as the model requires).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]` or `dest_size == 0`.
    pub fn new(rate: f64, dest_size: usize, deadline: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        assert!(dest_size > 0, "destination sets must be non-empty");
        PoissonWorkload {
            rate,
            dest_size,
            deadline,
            data_len: 16,
            rng: SmallRng::seed_from_u64(seed ^ 0x7a11_ab1e),
            next_id: 0,
            until: None,
        }
    }

    /// Sets the payload length in bytes (default 16).
    pub fn data_len(mut self, len: usize) -> Self {
        self.data_len = len;
        self
    }

    /// Stops injecting at the given round (exclusive) so executions can
    /// drain.
    pub fn until(mut self, round: Round) -> Self {
        self.until = Some(round);
        self
    }
}

impl InjectionPlan for PoissonWorkload {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        if let Some(limit) = self.until {
            if view.round >= limit {
                return Vec::new();
            }
        }
        let n = view.n();
        let mut out = Vec::new();
        for p in view.alive_ids() {
            if self.rng.gen_bool(self.rate) {
                let dest = sample_distinct(&mut self.rng, n, self.dest_size.min(n));
                let data = (0..self.data_len).map(|_| self.rng.gen()).collect();
                let spec = RumorSpec::new(self.next_id, data, self.deadline, dest);
                self.next_id += 1;
                out.push((p, spec));
            }
        }
        out
    }
}

/// The workload from the proofs of Theorems 1 and 12: at round 0, every
/// process injects exactly one rumor whose destination set contains each
/// process independently with probability `x/n`, where `x = n^{1/2 − 2/c}`.
#[derive(Clone, Debug)]
pub struct Theorem1Workload {
    c: f64,
    deadline: u64,
    data_len: usize,
    rng: SmallRng,
}

impl Theorem1Workload {
    /// Creates the workload with the paper's parameter `c` (it sets
    /// `c = ⌈2/ε⌉`; `c = 4` gives `x = √n / n^{1/2·…}` — see
    /// [`Self::x`]).
    pub fn new(c: f64, deadline: u64, seed: u64) -> Self {
        assert!(c > 2.0, "theorem 1 requires c > 2 so that x ≥ 1 eventually");
        Theorem1Workload {
            c,
            deadline,
            data_len: 16,
            rng: SmallRng::seed_from_u64(seed ^ 0x1e0_4e44),
        }
    }

    /// The expected destination-set size parameter `x = n^{1/2 − 2/c}`.
    pub fn x(&self, n: usize) -> f64 {
        (n as f64).powf(0.5 - 2.0 / self.c)
    }
}

impl InjectionPlan for Theorem1Workload {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        if view.round != Round::ZERO {
            return Vec::new();
        }
        let n = view.n();
        let prob = (self.x(n) / n as f64).clamp(0.0, 1.0);
        let mut out = Vec::new();
        for (i, p) in ProcessId::all(n).enumerate() {
            let mut dest: Vec<ProcessId> = ProcessId::all(n)
                .filter(|_| self.rng.gen_bool(prob))
                .collect();
            if dest.is_empty() {
                // Degenerate empty sets carry no delivery obligation; give
                // them one destination so every rumor is measurable.
                dest.push(ProcessId::new((i + 1) % n));
            }
            let data = (0..self.data_len).map(|_| self.rng.gen()).collect();
            let spec = RumorSpec::new(i as u64, data, self.deadline, dest);
            out.push((p, spec));
        }
        out
    }
}

/// Rumors repeatedly target the same fixed groups (the *stable groups*
/// regime where cryptographic multicast shines — used as the contrast case
/// in experiment E8).
#[derive(Clone, Debug)]
pub struct StableGroupWorkload {
    groups: Vec<Vec<ProcessId>>,
    rate: f64,
    deadline: u64,
    rng: SmallRng,
    next_id: u64,
    until: Option<Round>,
}

impl StableGroupWorkload {
    /// Creates a workload over the given fixed groups; each round each alive
    /// process injects with probability `rate`, targeting a uniformly chosen
    /// group.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or contains an empty group.
    pub fn new(groups: Vec<Vec<ProcessId>>, rate: f64, deadline: u64, seed: u64) -> Self {
        assert!(!groups.is_empty(), "need at least one group");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "groups must be non-empty"
        );
        StableGroupWorkload {
            groups,
            rate,
            deadline,
            rng: SmallRng::seed_from_u64(seed ^ 0x57ab_1e67),
            next_id: 0,
            until: None,
        }
    }

    /// Stops injecting at the given round (exclusive).
    pub fn until(mut self, round: Round) -> Self {
        self.until = Some(round);
        self
    }
}

impl InjectionPlan for StableGroupWorkload {
    fn decide_injections(&mut self, view: &RoundView<'_>) -> Vec<(ProcessId, RumorSpec)> {
        if let Some(limit) = self.until {
            if view.round >= limit {
                return Vec::new();
            }
        }
        let mut out = Vec::new();
        for p in view.alive_ids() {
            if self.rng.gen_bool(self.rate) {
                let g = self.rng.gen_range(0..self.groups.len());
                let data = (0..16).map(|_| self.rng.gen()).collect();
                let spec =
                    RumorSpec::new(self.next_id, data, self.deadline, self.groups[g].clone());
                self.next_id += 1;
                out.push((p, spec));
            }
        }
        out
    }
}

/// Samples `k` distinct process ids uniformly from `0..n` (Floyd's
/// algorithm).
pub fn sample_distinct(rng: &mut SmallRng, n: usize, k: usize) -> Vec<ProcessId> {
    debug_assert!(k <= n);
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen.sort_unstable();
    chosen.into_iter().map(ProcessId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use congos_sim::OutboxView;

    fn view(round: u64, alive: &[bool]) -> RoundView<'_> {
        RoundView {
            round: Round(round),
            alive,
            outbox: OutboxView::default(),
        }
    }

    #[test]
    fn rumor_spec_normalizes_dest() {
        let s = RumorSpec::new(
            0,
            vec![],
            10,
            vec![ProcessId::new(3), ProcessId::new(1), ProcessId::new(3)],
        );
        assert_eq!(s.dest, vec![ProcessId::new(1), ProcessId::new(3)]);
    }

    #[test]
    fn one_shot_fires_once() {
        let alive = vec![true; 4];
        let mut w = OneShot::new(
            Round(1),
            vec![(
                ProcessId::new(0),
                RumorSpec::new(0, vec![], 8, vec![ProcessId::new(1)]),
            )],
        );
        assert!(w.decide_injections(&view(0, &alive)).is_empty());
        assert_eq!(w.decide_injections(&view(1, &alive)).len(), 1);
        assert!(w.decide_injections(&view(1, &alive)).is_empty());
    }

    #[test]
    fn poisson_respects_rate_and_liveness() {
        let mut alive = vec![true; 100];
        alive[0] = false;
        let mut w = PoissonWorkload::new(1.0, 3, 64, 7);
        let out = w.decide_injections(&view(0, &alive));
        assert_eq!(out.len(), 99, "rate 1.0 ⇒ every alive process injects");
        assert!(out.iter().all(|(p, _)| p.as_usize() != 0));
        assert!(out.iter().all(|(_, s)| s.dest.len() == 3));
        let ids: Vec<u64> = out.iter().map(|(_, s)| s.id).collect();
        let mut dedup = ids.clone();
        dedup.dedup();
        assert_eq!(ids, dedup, "ids unique");
    }

    #[test]
    fn poisson_until_stops() {
        let alive = vec![true; 10];
        let mut w = PoissonWorkload::new(1.0, 2, 64, 7).until(Round(2));
        assert!(!w.decide_injections(&view(1, &alive)).is_empty());
        assert!(w.decide_injections(&view(2, &alive)).is_empty());
    }

    #[test]
    fn theorem1_destination_sets_have_expected_size() {
        let n = 256;
        let alive = vec![true; n];
        let mut w = Theorem1Workload::new(4.0, 64, 3);
        let out = w.decide_injections(&view(0, &alive));
        assert_eq!(out.len(), n, "every process injects exactly one rumor");
        let x = w.x(n); // n^{1/2 - 1/2} = n^0 = 1 for c=4
        let mean: f64 = out.iter().map(|(_, s)| s.dest.len() as f64).sum::<f64>() / n as f64;
        // Mean |D| ≈ x (within generous tolerance; sets are floored to ≥1).
        assert!(
            mean >= 0.5 * x.max(1.0) && mean <= 3.0 * x.max(1.0),
            "mean {mean} vs x {x}"
        );
        // Nothing after round 0.
        assert!(w.decide_injections(&view(1, &alive)).is_empty());
    }

    #[test]
    fn theorem1_x_formula() {
        let w = Theorem1Workload::new(8.0, 64, 0);
        let x = w.x(256);
        assert!((x - (256f64).powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn stable_groups_reuse_destinations() {
        let groups = vec![
            vec![ProcessId::new(0), ProcessId::new(1)],
            vec![ProcessId::new(2), ProcessId::new(3)],
        ];
        let alive = vec![true; 4];
        let mut w = StableGroupWorkload::new(groups.clone(), 1.0, 64, 9);
        let out = w.decide_injections(&view(0, &alive));
        assert_eq!(out.len(), 4);
        for (_, s) in &out {
            assert!(groups.contains(&s.dest));
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let v = sample_distinct(&mut rng, 20, 7);
            assert_eq!(v.len(), 7);
            let mut w = v.clone();
            w.dedup();
            assert_eq!(v, w);
            assert!(v.iter().all(|p| p.as_usize() < 20));
        }
        assert_eq!(sample_distinct(&mut rng, 5, 5).len(), 5);
        assert!(sample_distinct(&mut rng, 5, 0).is_empty());
    }
}
