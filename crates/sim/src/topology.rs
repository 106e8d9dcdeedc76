//! Pluggable communication topologies for the round engine.
//!
//! The paper assumes a reliable, fully connected network; production gossip
//! rarely gets one. This module factors "who can deliver to whom in round
//! `r`" out of the engine's delivery phase into a [`Topology`] value built
//! from a compact, copyable [`TopologySpec`]:
//!
//! * [`TopologySpec::Complete`] — every pair connected every round (the
//!   paper's model, and the default). The engine's delivery phase is
//!   bit-identical to the pre-topology engine under this spec.
//! * [`TopologySpec::Expander`] — a static random `d`-regular simple
//!   connected graph, constructed deterministically from the master seed
//!   (a randomly relabeled circulant randomized by degree-preserving
//!   double-edge swaps; construction succeeds for every valid `(n, d)`).
//! * [`TopologySpec::Churn`] — per-round seeded edge perturbation over a
//!   base topology: each unordered pair independently *flips* its base
//!   state in round `r` with probability `p` (dropping base edges and
//!   adding non-edges), à la the *dynamic gossip* literature.
//!
//! # Determinism contract
//!
//! A topology is a pure function of `(spec, n, seed)`; edge queries are pure
//! functions of `(topology, round, pair)`. No engine RNG stream is consumed
//! — per-process protocol RNG streams are left alone, so enabling a topology
//! cannot reorder any random choice, and the sequential and parallel
//! backends remain bit-identical under every topology (delivery filtering
//! happens in the engine's sequential delivery phase, shared by both
//! backends).
//!
//! Messages a process sends to itself are always delivered: self-delivery
//! is local computation, not network traffic.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::clock::Round;
use crate::idset::IdSet;
use crate::process::ProcessId;

/// A compact, copyable description of a topology — the form that travels
/// through configs, CLI flags (`--topology complete|expander:d|churn:p`)
/// and environment variables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// Every pair of processes is connected in every round (the paper's
    /// reliable complete network; the default).
    #[default]
    Complete,
    /// A static random `degree`-regular simple connected graph, seeded from
    /// the engine's master seed.
    Expander {
        /// Vertex degree. Valid when `2 <= degree < n` and `n·degree` is
        /// even (`degree == 1` is allowed only for `n == 2`).
        degree: usize,
    },
    /// Per-round seeded edge churn over a base topology: each unordered
    /// pair flips its base connectivity in a given round with probability
    /// `flip_ppm / 1_000_000`, independently per round.
    Churn {
        /// Degree of the expander base, or `None` for a complete base.
        base_degree: Option<usize>,
        /// Flip probability in parts per million (so the spec stays `Eq` +
        /// `Hash` and hashing is exact).
        flip_ppm: u32,
    },
}

impl TopologySpec {
    /// Churn over a complete base with flip probability `p` (clamped to
    /// `[0, 1]`).
    pub fn churn(p: f64) -> Self {
        TopologySpec::Churn {
            base_degree: None,
            flip_ppm: ppm_of(p),
        }
    }

    /// `true` for the complete topology (the engine's zero-overhead path).
    pub fn is_complete(&self) -> bool {
        matches!(self, TopologySpec::Complete)
    }

    /// Checks that this spec can be instantiated over `n` processes.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let check_degree = |d: usize| -> Result<(), String> {
            if n == 2 && d == 1 {
                return Ok(());
            }
            if d < 2 {
                return Err(format!(
                    "expander degree {d} cannot form a connected graph over n={n}"
                ));
            }
            if d >= n {
                return Err(format!(
                    "expander degree {d} needs at least {} processes",
                    d + 1
                ));
            }
            if n * d % 2 != 0 {
                return Err(format!("no {d}-regular graph on {n} vertices (n·d is odd)"));
            }
            Ok(())
        };
        match self {
            TopologySpec::Complete => Ok(()),
            TopologySpec::Expander { degree } => check_degree(*degree),
            TopologySpec::Churn {
                base_degree,
                flip_ppm,
            } => {
                if *flip_ppm > 1_000_000 {
                    return Err(format!("churn probability {flip_ppm}ppm exceeds 1.0"));
                }
                match base_degree {
                    Some(d) => check_degree(*d),
                    None => Ok(()),
                }
            }
        }
    }
}

fn ppm_of(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 1e6).round() as u32
}

fn fmt_ppm(ppm: u32) -> String {
    let p = ppm as f64 / 1e6;
    // Shortest representation that round-trips through ppm.
    let s = format!("{p}");
    if ppm_of(s.parse().unwrap_or(0.0)) == ppm {
        s
    } else {
        format!("{p:.6}")
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Complete => write!(f, "complete"),
            TopologySpec::Expander { degree } => write!(f, "expander:{degree}"),
            TopologySpec::Churn {
                base_degree: None,
                flip_ppm,
            } => {
                write!(f, "churn:{}", fmt_ppm(*flip_ppm))
            }
            TopologySpec::Churn {
                base_degree: Some(d),
                flip_ppm,
            } => {
                write!(f, "churn:{}@expander:{d}", fmt_ppm(*flip_ppm))
            }
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parses `complete`, `expander:<d>`, `churn:<p>` (churn over a
    /// complete base) or `churn:<p>@expander:<d>` / `churn:<p>@complete`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.split_once(':') {
            None => match s {
                "complete" | "full" => Ok(TopologySpec::Complete),
                _ => Err(format!(
                    "unknown topology {s:?} (expected complete, expander:<d> or churn:<p>)"
                )),
            },
            Some(("expander", d)) => {
                let degree = d
                    .parse::<usize>()
                    .ok()
                    .filter(|&d| d >= 1)
                    .ok_or_else(|| format!("bad expander degree in {s:?}"))?;
                Ok(TopologySpec::Expander { degree })
            }
            Some(("churn", rest)) => {
                let (p, base) = match rest.split_once('@') {
                    None => (rest, None),
                    Some((p, base)) => (p, Some(base)),
                };
                let p: f64 = p
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("bad churn probability in {s:?} (need 0..=1)"))?;
                let base_degree = match base {
                    None | Some("complete") => None,
                    Some(b) => match b.strip_prefix("expander:") {
                        Some(d) => Some(
                            d.parse::<usize>()
                                .ok()
                                .filter(|&d| d >= 1)
                                .ok_or_else(|| format!("bad churn base degree in {s:?}"))?,
                        ),
                        None => return Err(format!("bad churn base in {s:?}")),
                    },
                };
                Ok(TopologySpec::Churn {
                    base_degree,
                    flip_ppm: ppm_of(p),
                })
            }
            Some(_) => Err(format!(
                "unknown topology {s:?} (expected complete, expander:<d> or churn:<p>)"
            )),
        }
    }
}

/// The static part of a built topology.
#[derive(Clone, Debug)]
enum BaseGraph {
    /// Complete graph — no adjacency storage needed.
    Complete,
    /// Static adjacency bitsets, `adj[p] = neighbors of p`.
    Static(Vec<IdSet>),
}

impl BaseGraph {
    fn connected(&self, a: usize, b: usize) -> bool {
        match self {
            BaseGraph::Complete => true,
            BaseGraph::Static(adj) => adj[a].contains(ProcessId::new(b)),
        }
    }
}

/// A topology instantiated over `n` processes with a master seed: answers
/// "can a message from `src` reach `dst` in round `r`?" in O(1), without
/// consuming any engine RNG stream (see the module docs for the
/// determinism contract).
#[derive(Clone, Debug)]
pub struct Topology {
    spec: TopologySpec,
    n: usize,
    /// Seed for the per-round churn hash (unused for static topologies).
    churn_seed: u64,
    /// Flip probability as a 64-bit threshold: pair flips iff
    /// `hash < flip_threshold`. 0 for static topologies.
    flip_threshold: u64,
    base: BaseGraph,
}

impl Topology {
    /// Builds the topology described by `spec` over `n` processes, keyed by
    /// `seed` (the engine's master seed; the derivation is collision-free
    /// with the per-process protocol RNG streams).
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate(n)` fails.
    pub fn build(spec: TopologySpec, n: usize, seed: u64) -> Self {
        if let Err(e) = spec.validate(n) {
            panic!("invalid topology {spec} for n={n}: {e}");
        }
        let graph_seed = crate::rng::named_seed(seed, "topology.graph");
        let churn_seed = crate::rng::named_seed(seed, "topology.churn");
        let (base, flip_threshold) = match spec {
            TopologySpec::Complete => (BaseGraph::Complete, 0),
            TopologySpec::Expander { degree } => {
                (BaseGraph::Static(build_regular(n, degree, graph_seed)), 0)
            }
            TopologySpec::Churn {
                base_degree,
                flip_ppm,
            } => {
                let base = match base_degree {
                    None => BaseGraph::Complete,
                    Some(d) => BaseGraph::Static(build_regular(n, d, graph_seed)),
                };
                // ppm → probability threshold over the full u64 range.
                let threshold = ((flip_ppm as u128 * (u128::from(u64::MAX) + 1)) / 1_000_000)
                    .min(u128::from(u64::MAX) + 1);
                (base, threshold.try_into().unwrap_or(u64::MAX))
            }
        };
        Topology {
            spec,
            n,
            churn_seed,
            flip_threshold,
            base,
        }
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` for the complete topology — the engine skips per-envelope
    /// checks entirely on this path.
    pub fn is_complete(&self) -> bool {
        self.spec.is_complete()
    }

    /// Whether a message from `a` can be delivered to `b` in round `round`.
    /// Symmetric in `a`/`b`; self-pairs are always connected.
    pub fn connected(&self, round: Round, a: ProcessId, b: ProcessId) -> bool {
        let (i, j) = (a.as_usize(), b.as_usize());
        debug_assert!(i < self.n && j < self.n, "pair outside universe");
        if i == j {
            return true;
        }
        let base = self.base.connected(i, j);
        if self.flip_threshold == 0 {
            return base;
        }
        base ^ self.pair_flips(round, i.min(j), i.max(j))
    }

    /// The neighbors of `p` in round `round` (excluding `p` itself).
    pub fn neighbors(&self, round: Round, p: ProcessId) -> IdSet {
        let mut out = IdSet::empty(self.n);
        for q in ProcessId::all(self.n) {
            if q != p && self.connected(round, p, q) {
                out.insert(q);
            }
        }
        out
    }

    /// Whether a rumor starting at `src` can topologically reach `dst` by
    /// flooding over rounds `start..=end` (one hop per round, ignoring
    /// crashes) — the reachability bound that gates Quality-of-Delivery
    /// admissibility on sparse or churning topologies.
    pub fn reachable_within(
        &self,
        src: ProcessId,
        dst: ProcessId,
        start: Round,
        end: Round,
    ) -> bool {
        if src == dst || self.is_complete() {
            return src == dst || start <= end;
        }
        let mut informed = IdSet::empty(self.n);
        informed.insert(src);
        let mut r = start;
        while r <= end {
            let mut next = informed.clone();
            for p in informed.iter() {
                for q in ProcessId::all(self.n) {
                    if !next.contains(q) && self.connected(r, p, q) {
                        next.insert(q);
                    }
                }
            }
            if next.contains(dst) {
                return true;
            }
            if next == informed {
                // Static topology fixpoint: no new process can ever be
                // reached (churn topologies keep resampling, so only bail
                // out early when the graph cannot change).
                if self.flip_threshold == 0 {
                    return false;
                }
            }
            informed = next;
            r = r.next();
        }
        false
    }

    /// The undirected edge set of round `round`, as `(i, j)` pairs with
    /// `i < j` — for tests and graph diagnostics.
    pub fn edges(&self, round: Round) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in i + 1..self.n {
                if self.connected(round, ProcessId::new(i), ProcessId::new(j)) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Seeded, symmetric per-(round, pair) coin: `true` with probability
    /// `flip_threshold / 2^64`.
    fn pair_flips(&self, round: Round, lo: usize, hi: usize) -> bool {
        debug_assert!(lo < hi);
        let h = mix(
            mix(mix(self.churn_seed, round.as_u64()), lo as u64),
            hi as u64,
        );
        h < self.flip_threshold
    }
}

/// SplitMix64-style finalizer (same family as `crate::rng`), used for the
/// per-round churn coins so edge queries stay O(1) and allocation-free.
fn mix(state: u64, input: u64) -> u64 {
    let mut z = state
        .wrapping_add(input)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a random simple connected `d`-regular graph on `n` vertices as
/// adjacency bitsets, deterministically from `seed`.
///
/// Construction: a randomly relabeled circulant graph `C_n(1..=d/2)` (plus
/// the antipodal perfect matching when `d` is odd — `n` is even then) is
/// simple, exactly `d`-regular and connected for every valid `(n, d)`;
/// seeded degree-preserving double-edge swaps then randomize its structure.
/// Swaps preserve regularity and simplicity unconditionally, so only
/// connectivity needs rechecking: a disconnected result re-randomizes from
/// the base, and after bounded retries the relabeled circulant itself —
/// connected by construction — is returned. No `(n, d, seed)` corner can
/// fail.
fn build_regular(n: usize, d: usize, seed: u64) -> Vec<IdSet> {
    let mut rng = SmallRng::seed_from_u64(seed);

    // Relabeled circulant base. Validation gives d < n, hence every offset
    // k in 1..=d/2 satisfies 2k < n: each layer contributes n distinct
    // edges and exactly 2 to every degree, and offset 1 (present whenever
    // d >= 2) makes the base connected. n == 2, d == 1 has no layers and
    // falls through to the antipodal matching, i.e. the single K2 edge.
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(&mut rng);
    let mut base_adj: Vec<IdSet> = (0..n).map(|_| IdSet::empty(n)).collect();
    let mut base_edges: Vec<(usize, usize)> = Vec::with_capacity(n * d / 2);
    let mut add_edge = |a: usize, b: usize| {
        base_adj[a].insert(ProcessId::new(b));
        base_adj[b].insert(ProcessId::new(a));
        base_edges.push((a, b));
    };
    for k in 1..=d / 2 {
        for i in 0..n {
            add_edge(label[i], label[(i + k) % n]);
        }
    }
    if d % 2 == 1 {
        for i in 0..n / 2 {
            add_edge(label[i], label[i + n / 2]);
        }
    }
    debug_assert!(
        base_adj.iter().all(|s| s.len() == d),
        "base must be d-regular"
    );

    let m = base_edges.len();
    for _restart in 0..8 {
        let mut adj = base_adj.clone();
        let mut edges = base_edges.clone();
        if m >= 2 {
            for _ in 0..4 * n * d {
                let e1 = rng.gen_range(0..m);
                let e2 = rng.gen_range(0..m);
                if e1 == e2 {
                    continue;
                }
                let (a, b) = edges[e1];
                let (mut c, mut dd) = edges[e2];
                if rng.gen_bool(0.5) {
                    std::mem::swap(&mut c, &mut dd);
                }
                // (a,b) + (c,dd) → (a,c) + (b,dd), rejected unless it keeps
                // the graph simple.
                if a == c || a == dd || b == c || b == dd {
                    continue;
                }
                if adj[a].contains(ProcessId::new(c)) || adj[b].contains(ProcessId::new(dd)) {
                    continue;
                }
                adj[a].remove(ProcessId::new(b));
                adj[b].remove(ProcessId::new(a));
                adj[c].remove(ProcessId::new(dd));
                adj[dd].remove(ProcessId::new(c));
                adj[a].insert(ProcessId::new(c));
                adj[c].insert(ProcessId::new(a));
                adj[b].insert(ProcessId::new(dd));
                adj[dd].insert(ProcessId::new(b));
                edges[e1] = (a, c);
                edges[e2] = (b, dd);
            }
        }
        if is_connected(&adj) {
            return adj;
        }
    }
    base_adj
}

/// Depth-first connectivity over adjacency bitsets.
fn is_connected(adj: &[IdSet]) -> bool {
    let n = adj.len();
    let mut seen = IdSet::empty(n);
    seen.insert(ProcessId::new(0));
    let mut stack = vec![0usize];
    while let Some(v) = stack.pop() {
        for w in adj[v].iter() {
            if seen.insert(w) {
                stack.push(w.as_usize());
            }
        }
    }
    seen.len() == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn spec_parses_and_displays() {
        assert_eq!(
            TopologySpec::from_str("complete").unwrap(),
            TopologySpec::Complete
        );
        assert_eq!(
            TopologySpec::from_str("expander:8").unwrap(),
            TopologySpec::Expander { degree: 8 }
        );
        assert_eq!(
            TopologySpec::from_str("churn:0.05").unwrap(),
            TopologySpec::Churn {
                base_degree: None,
                flip_ppm: 50_000
            }
        );
        assert_eq!(
            TopologySpec::from_str("churn:0.1@expander:6").unwrap(),
            TopologySpec::Churn {
                base_degree: Some(6),
                flip_ppm: 100_000
            }
        );
        assert_eq!(
            TopologySpec::from_str("churn:0.2@complete").unwrap(),
            TopologySpec::churn(0.2)
        );
        for s in [
            "complete",
            "expander:8",
            "churn:0.05",
            "churn:0.1@expander:6",
        ] {
            let spec = TopologySpec::from_str(s).unwrap();
            assert_eq!(spec.to_string(), s, "display must round-trip");
            assert_eq!(
                TopologySpec::from_str(&spec.to_string()).unwrap(),
                spec,
                "parse(display) must round-trip"
            );
        }
        assert!(TopologySpec::from_str("expander:0").is_err());
        assert!(TopologySpec::from_str("churn:1.5").is_err());
        assert!(TopologySpec::from_str("churn:x").is_err());
        assert!(TopologySpec::from_str("ring").is_err());
        assert_eq!(TopologySpec::default(), TopologySpec::Complete);
    }

    #[test]
    fn validation_rejects_impossible_graphs() {
        assert!(TopologySpec::Complete.validate(1).is_ok());
        assert!(TopologySpec::Expander { degree: 3 }.validate(8).is_ok());
        assert!(TopologySpec::Expander { degree: 3 }.validate(7).is_err()); // n·d odd
        assert!(TopologySpec::Expander { degree: 8 }.validate(8).is_err()); // d >= n
        assert!(TopologySpec::Expander { degree: 1 }.validate(8).is_err()); // disconnected
        assert!(TopologySpec::Expander { degree: 1 }.validate(2).is_ok()); // K2
        assert!(TopologySpec::churn(0.5).validate(8).is_ok());
        assert!(TopologySpec::Churn {
            base_degree: Some(4),
            flip_ppm: 10_000
        }
        .validate(10)
        .is_ok());
    }

    #[test]
    fn complete_connects_everyone() {
        let t = Topology::build(TopologySpec::Complete, 8, 7);
        assert!(t.is_complete());
        for r in [0u64, 5, 100] {
            for i in 0..8 {
                for j in 0..8 {
                    assert!(t.connected(Round(r), p(i), p(j)));
                }
            }
        }
        assert!(t.reachable_within(p(0), p(7), Round(3), Round(3)));
    }

    #[test]
    fn expander_is_d_regular_static_and_symmetric() {
        for (n, d) in [(8, 3), (9, 4), (16, 4), (24, 5), (32, 6)] {
            let t = Topology::build(TopologySpec::Expander { degree: d }, n, 0xE);
            for i in 0..n {
                let nb = t.neighbors(Round(0), p(i));
                assert_eq!(nb.len(), d, "n={n} d={d} vertex {i}");
                assert!(!nb.contains(p(i)), "self-loop at {i}");
                for q in nb.iter() {
                    assert!(t.connected(Round(9), q, p(i)), "asymmetric edge");
                }
            }
            // Static: edges don't change over rounds.
            assert_eq!(t.edges(Round(0)), t.edges(Round(77)));
        }
    }

    #[test]
    fn expander_is_connected() {
        for seed in 0..8u64 {
            let t = Topology::build(TopologySpec::Expander { degree: 4 }, 21, seed);
            for dst in 1..21 {
                assert!(
                    t.reachable_within(p(0), p(dst), Round(0), Round(64)),
                    "seed {seed}: vertex {dst} unreachable"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_graph_different_seed_different_graph() {
        let a = Topology::build(TopologySpec::Expander { degree: 4 }, 16, 1);
        let b = Topology::build(TopologySpec::Expander { degree: 4 }, 16, 1);
        let c = Topology::build(TopologySpec::Expander { degree: 4 }, 16, 2);
        assert_eq!(a.edges(Round(0)), b.edges(Round(0)));
        assert_ne!(a.edges(Round(0)), c.edges(Round(0)));
    }

    #[test]
    fn churn_flips_edges_per_round_deterministically() {
        let t = Topology::build(TopologySpec::churn(0.3), 12, 9);
        let e0 = t.edges(Round(0));
        let e1 = t.edges(Round(1));
        assert_ne!(e0, e1, "churn must resample per round");
        let t2 = Topology::build(TopologySpec::churn(0.3), 12, 9);
        assert_eq!(e0, t2.edges(Round(0)), "same seed ⇒ same per-round edges");
        let complete_edges = 12 * 11 / 2;
        assert!(e0.len() < complete_edges, "p=0.3 must drop some edges");
        assert!(e0.len() > complete_edges / 2, "p=0.3 drops ≈30%, not most");
    }

    #[test]
    fn churn_zero_is_the_base_and_one_is_its_complement() {
        let base = Topology::build(TopologySpec::Expander { degree: 4 }, 10, 3);
        let frozen = Topology::build(
            TopologySpec::Churn {
                base_degree: Some(4),
                flip_ppm: 0,
            },
            10,
            3,
        );
        assert_eq!(base.edges(Round(5)), frozen.edges(Round(5)));
        let inverted = Topology::build(
            TopologySpec::Churn {
                base_degree: None,
                flip_ppm: 1_000_000,
            },
            10,
            3,
        );
        assert!(
            inverted.edges(Round(0)).is_empty(),
            "p=1 over complete = empty"
        );
        assert!(!inverted.connected(Round(0), p(0), p(1)));
        assert!(inverted.connected(Round(0), p(3), p(3)), "self stays local");
    }

    #[test]
    fn reachability_respects_disconnection() {
        // p=1 over complete: nothing is ever connected.
        let none = Topology::build(TopologySpec::churn(1.0), 6, 1);
        assert!(!none.reachable_within(p(0), p(5), Round(0), Round(100)));
        assert!(none.reachable_within(p(2), p(2), Round(0), Round(0)));
        // Expander: distance-limited reachability — a 4-regular graph on 21
        // vertices cannot reach everyone in a single hop.
        let t = Topology::build(TopologySpec::Expander { degree: 4 }, 21, 5);
        let far = (1..21)
            .map(ProcessId::new)
            .find(|q| !t.connected(Round(0), p(0), *q))
            .expect("some non-neighbor exists");
        assert!(!t.reachable_within(p(0), far, Round(0), Round(0)));
        assert!(t.reachable_within(p(0), far, Round(0), Round(32)));
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn build_rejects_invalid_spec() {
        let _ = Topology::build(TopologySpec::Expander { degree: 9 }, 8, 0);
    }

    #[test]
    fn k2_matching_and_tiny_complete_graphs() {
        let t = Topology::build(TopologySpec::Expander { degree: 1 }, 2, 0);
        assert!(t.connected(Round(0), p(0), p(1)));
        // K4 as a 3-regular "expander": cycles + matching must tile it.
        let t = Topology::build(TopologySpec::Expander { degree: 3 }, 4, 11);
        for i in 0..4 {
            assert_eq!(t.neighbors(Round(0), p(i)).len(), 3);
        }
    }
}
