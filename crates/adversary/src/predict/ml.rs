//! The maximum-likelihood source estimator.
//!
//! Jin/Huang/Dai analyze source privacy on *general* graphs: what leaks is
//! not just who spoke first but how well each candidate's position in the
//! known topology explains the whole observed spread curve. This estimator
//! scores every candidate `s` by comparing, for each sender `u` the
//! coalition sighted, the observed first-activity latency of `u` against the
//! earliest round at which `u` *could* have been informed had `s` been the
//! source — the BFS distance `d(s, u)` on the public topology.
//!
//! The likelihood is a soft hop-count model rather than an exact one:
//! protocols do not forward along shortest paths every round, so a sender
//! being *later* than `d(s, u) + 1` is only weak evidence against `s`
//! (weight [`MlEstimator::late_weight`] per slack round), while being
//! *earlier* is physically impossible under source `s` up to protocol
//! batching and is penalized much harder ([`MlEstimator::early_weight`]).
//! Log-likelihoods are softmax-normalized, so the result is a posterior that
//! sums to 1 over the candidate pool.

use congos_sim::{ProcessId, Round, Topology};

use super::EstimatorCtx;

/// Maximum-likelihood estimator configuration.
#[derive(Clone, Copy, Debug)]
pub struct MlEstimator {
    /// Penalty per round of *late* slack (`observed > expected`).
    pub late_weight: f64,
    /// Penalty per round of *early* slack (`observed < expected`), i.e. the
    /// candidate cannot causally explain the sighting.
    pub early_weight: f64,
}

impl Default for MlEstimator {
    fn default() -> Self {
        MlEstimator {
            late_weight: 0.35,
            early_weight: 2.0,
        }
    }
}

impl MlEstimator {
    /// Posterior over `ctx.candidates` given the sighting log and the public
    /// `topology`.
    ///
    /// Distances are taken on the topology's graph at round
    /// `ctx.injected_at`; for churning topologies this is a snapshot
    /// approximation (documented in EXPERIMENTS.md E13 — churn both blurs
    /// the true spread and degrades the adversary's model, which is part of
    /// what the experiment measures). Disconnected pairs get distance `n`.
    /// With no usable sightings the posterior is uniform.
    pub fn posterior(&self, ctx: &EstimatorCtx<'_>, topology: &Topology) -> Vec<f64> {
        let m = ctx.candidates.len();
        assert!(m > 0, "ML estimation needs a non-empty suspect pool");
        let n = ctx.log.n();
        let first = ctx.log.first_per_sender(ctx.tags, ctx.injected_at);
        let observed: Vec<(usize, u64)> = first
            .iter()
            .enumerate()
            .filter_map(|(u, r)| r.map(|r| (u, r.0 - ctx.injected_at.0)))
            .collect();
        if observed.is_empty() {
            return vec![1.0 / m as f64; m];
        }

        let adj = adjacency(topology, ctx.injected_at, n);
        let ll: Vec<f64> = ctx
            .candidates
            .iter()
            .map(|s| {
                let dist = bfs(&adj, s.as_usize(), n);
                -observed
                    .iter()
                    .map(|&(u, latency)| {
                        // One round to first leave the source: a rumor
                        // injected in round t is first *sent* in round t+1.
                        let expected = dist[u] as f64 + 1.0;
                        let slack = latency as f64 - expected;
                        if slack >= 0.0 {
                            self.late_weight * slack
                        } else {
                            self.early_weight * -slack
                        }
                    })
                    .sum::<f64>()
            })
            .collect();

        softmax(&ll)
    }
}

fn adjacency(topology: &Topology, round: Round, n: usize) -> Vec<Vec<usize>> {
    ProcessId::all(n)
        .map(|p| {
            topology
                .neighbors(round, p)
                .iter()
                .map(|q| q.as_usize())
                .collect()
        })
        .collect()
}

/// BFS hop counts from `start`; unreachable vertices get distance `n`.
fn bfs(adj: &[Vec<usize>], start: usize, n: usize) -> Vec<u64> {
    let mut dist = vec![n as u64; n];
    dist[start] = 0;
    let mut frontier = vec![start];
    let mut next = Vec::new();
    let mut d = 0;
    while !frontier.is_empty() {
        d += 1;
        for &u in &frontier {
            for &v in &adj[u] {
                if dist[v] == n as u64 && v != start {
                    dist[v] = d;
                    next.push(v);
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    dist
}

fn softmax(ll: &[f64]) -> Vec<f64> {
    let max = ll.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = ll.iter().map(|x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::super::{EstimatorCtx, Sighting, SightingLog};
    use super::*;
    use congos_sim::{Tag, TopologySpec};

    /// Hand-computed 4-node trace on the complete graph: the rumor is
    /// injected at round 2; observer p3 hears p0 at round 3 (latency 1 =
    /// d+1 for the source itself) and p1 at round 4 (informed one hop
    /// later). Candidate p0 explains both sightings with zero late slack
    /// against expected latencies; p2 (never sighted) cannot do better.
    fn ctx_log() -> SightingLog {
        let mut log = SightingLog::new(4);
        let obs = ProcessId::new(3);
        log.record(Sighting {
            round: Round(3),
            observer: obs,
            sender: ProcessId::new(0),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(4),
            observer: obs,
            sender: ProcessId::new(1),
            tag: Tag("rumor"),
        });
        log
    }

    #[test]
    fn posterior_sums_to_one_and_prefers_consistent_candidate() {
        let log = ctx_log();
        let candidates: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(2),
            tags: &["rumor"],
        };
        let topo = Topology::build(TopologySpec::Complete, 4, 0);
        let p = MlEstimator::default().posterior(&ctx, &topo);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "posterior sums to 1, got {sum}");
        // On the complete graph every candidate is 1 hop from everyone, so
        // p0's own round-3 sighting (latency 1) is *early* slack for
        // candidates p1/p2 (expected 2) and exact for p0.
        assert!(p[0] > p[1] && p[0] > p[2], "true source wins: {p:?}");
        // p1 was sighted at latency 2 — exact for p1 as source — while p2
        // was never sighted; both carry one early-slack violation from p0's
        // sighting, and p1 additionally explains its own sighting exactly.
        assert!(p[1] > 0.0 && p[2] > 0.0, "softmax keeps full support");
    }

    #[test]
    fn uniform_without_sightings() {
        let log = SightingLog::new(4);
        let candidates: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(0),
            tags: &[],
        };
        let topo = Topology::build(TopologySpec::Complete, 4, 0);
        let p = MlEstimator::default().posterior(&ctx, &topo);
        assert!(p.iter().all(|x| (*x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn distance_model_separates_candidates_on_a_sparse_graph() {
        // Ring of 6 (expander degree 2): distances differ by candidate, so
        // a latency-3 sighting of a far node should favor far candidates.
        let topo = Topology::build(TopologySpec::Expander { degree: 2 }, 6, 9);
        let mut log = SightingLog::new(6);
        // Find two nodes at graph distance >= 2 to stage the sighting.
        let adj = adjacency(&topo, Round(0), 6);
        let dist0 = bfs(&adj, 0, 6);
        let far = (0..6).max_by_key(|&v| dist0[v]).unwrap();
        assert!(dist0[far] >= 2, "ring should have a far pair");
        // The far node is sighted with the exact latency source 0 predicts.
        log.record(Sighting {
            round: Round(dist0[far] + 1),
            observer: ProcessId::new(5),
            sender: ProcessId::new(far),
            tag: Tag("rumor"),
        });
        let candidates: Vec<ProcessId> = (0..6).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(0),
            tags: &["rumor"],
        };
        let p = MlEstimator::default().posterior(&ctx, &topo);
        // The sighted node itself (latency d+1 vs its expected 1) is a
        // worse explanation than candidate 0, for which the fit is exact.
        assert!(
            p[0] > p[far],
            "distance-consistent candidate preferred: {p:?}"
        );
    }
}
