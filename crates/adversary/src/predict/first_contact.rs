//! The first-contact estimator.
//!
//! Bellet/Guerraoui/Hendrikx's baseline attack: the source is whoever the
//! coalition hears from *first*. In a complete graph with push gossip the
//! first rumor-bearing message a curious node receives is very likely to
//! come straight from the source; protocols hide the source exactly to the
//! extent that they break this correlation (by delaying, re-routing through
//! proxies, or drowning the first contact in uniform background traffic).

use congos_sim::Round;

use super::EstimatorCtx;

/// Posterior over `ctx.candidates` under the first-contact rule.
///
/// Finds the earliest round `>= ctx.injected_at` in which any *candidate*
/// was sighted sending a rumor-bearing message, and splits all probability
/// mass uniformly over the candidates sighted in that round (several
/// candidates can tie in a synchronous network; the split makes the
/// downstream accounting equal to the hit rate of a uniformly randomized
/// tie-break). Sightings of non-candidates (coalition relays) are ignored.
/// With no usable sightings at all the estimator abstains: the posterior is
/// uniform over the candidates.
pub fn first_contact_posterior(ctx: &EstimatorCtx<'_>) -> Vec<f64> {
    let m = ctx.candidates.len();
    assert!(m > 0, "first-contact needs a non-empty suspect pool");
    let first = ctx.log.first_per_sender(ctx.tags, ctx.injected_at);

    let mut best: Option<Round> = None;
    for c in ctx.candidates {
        if let Some(r) = first[c.as_usize()] {
            if best.is_none_or(|b| r < b) {
                best = Some(r);
            }
        }
    }

    match best {
        None => vec![1.0 / m as f64; m],
        Some(r_star) => {
            let hits: Vec<bool> = ctx
                .candidates
                .iter()
                .map(|c| first[c.as_usize()] == Some(r_star))
                .collect();
            let k = hits.iter().filter(|h| **h).count() as f64;
            hits.iter()
                .map(|h| if *h { 1.0 / k } else { 0.0 })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Sighting, SightingLog};
    use super::*;
    use congos_sim::{ProcessId, Tag};

    /// Hand-computed 4-node trace: source p0 injects at round 2, observer p3
    /// hears p0 at round 3 and p1 (a relay) at round 4.
    fn four_node_log() -> SightingLog {
        let mut log = SightingLog::new(4);
        let obs = ProcessId::new(3);
        log.record(Sighting {
            round: Round(1),
            observer: obs,
            sender: ProcessId::new(1),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(3),
            observer: obs,
            sender: ProcessId::new(0),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(3),
            observer: obs,
            sender: ProcessId::new(0),
            tag: Tag("noise"),
        });
        log.record(Sighting {
            round: Round(4),
            observer: obs,
            sender: ProcessId::new(1),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(5),
            observer: obs,
            sender: ProcessId::new(2),
            tag: Tag("rumor"),
        });
        log
    }

    #[test]
    fn picks_earliest_candidate_sender_exactly() {
        let log = four_node_log();
        let candidates: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(2),
            tags: &["rumor"],
        };
        // p1's round-1 sighting predates the injection and must be ignored;
        // p0's round-3 sighting is the first contact.
        assert_eq!(first_contact_posterior(&ctx), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn splits_mass_over_tied_first_contacts() {
        let mut log = four_node_log();
        let obs = ProcessId::new(3);
        log.record(Sighting {
            round: Round(3),
            observer: obs,
            sender: ProcessId::new(2),
            tag: Tag("rumor"),
        });
        let candidates: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(2),
            tags: &["rumor"],
        };
        assert_eq!(first_contact_posterior(&ctx), vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn abstains_to_uniform_without_sightings() {
        let log = SightingLog::new(4);
        let candidates: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(0),
            tags: &[],
        };
        let p = first_contact_posterior(&ctx);
        assert!(p.iter().all(|x| (*x - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn ignores_non_candidate_relays() {
        let log = four_node_log();
        // Only p1 and p2 are suspects; p0's earlier sighting is off-pool.
        let candidates = [ProcessId::new(1), ProcessId::new(2)];
        let ctx = EstimatorCtx {
            log: &log,
            candidates: &candidates,
            injected_at: Round(2),
            tags: &["rumor"],
        };
        assert_eq!(first_contact_posterior(&ctx), vec![1.0, 0.0]);
    }
}
