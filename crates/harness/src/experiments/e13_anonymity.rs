//! **E13 — source anonymity: who started this rumor, and can CONGOS hide
//! it?**
//!
//! The paper proves *payload* confidentiality; this experiment measures
//! *metadata* leakage. A passive observing coalition (a seeded fraction of
//! the processes, never containing the source) records the
//! `(observer, sender, tag, round)` metadata of every message delivered to
//! it — via the RNG-neutral tap of `congos_adversary::predict` — and then
//! tries to identify the rumor's source with two estimators from the
//! gossip-privacy literature:
//!
//! * **first-contact** (Bellet/Guerraoui/Hendrikx): the earliest candidate
//!   the coalition hears from on a rumor-bearing tag is the suspect;
//! * **ML** (after Jin/Huang/Dai): a posterior over candidates scored by
//!   how well each candidate's BFS distances on the *known* topology
//!   explain the observed first-sighting latencies.
//!
//! Each cell of the sweep — protocol × topology × coalition fraction —
//! aggregates many independent one-rumor trials (fresh seed, fresh uniform
//! source, fresh coalition) into an identification probability `p_id`, a
//! top-3 accuracy, and the DP-style `ε̂` of the papers
//! (`ε = ln(p·(m−1)/(1−p))`, Laplace-smoothed; 0 = the attack is no better
//! than uniform guessing over the `m` candidates).
//!
//! The adversary is given every honest advantage: it knows the topology,
//! the injection round, and the per-protocol set of rumor-correlated
//! service tags. What it cannot do is decrypt payloads or see links it is
//! not an endpoint of.
//!
//! **CONGOS is measured in its Section 7 metadata-hiding deployment**:
//! cover traffic on (`congos` rows), so every process continually injects
//! content-free decoys that exercise the *same* proxy/group machinery as
//! real rumors. The `congos-nocover` ablation rows run the base protocol
//! and document the honest negative result: without cover traffic the
//! network is quiescent until the rumor arrives, the first thing any
//! coalition member can hear is the source's own proxy handshake, and the
//! source is identified essentially whenever the coalition contains a
//! proxy — *worse* than direct unicast, whose exposure is capped by the
//! `|D|` destinations. Confidentiality of payloads (the paper's
//! theorems) buys no source anonymity on its own; the cover-traffic
//! extension is what hides the source.

use congos::{CongosConfig, CongosNode, CoverTrafficConfig};
use congos_adversary::predict::{
    first_contact_posterior, AttackScore, CoalitionSpec, CoalitionTap, EstimatorCtx, MlEstimator,
};
use congos_adversary::{NoFailures, OneShot, RumorSpec};
use congos_baselines::{DirectNode, StronglyConfidentialNode};
use congos_sim::{ProcessId, Protocol, Round, Topology, TopologySpec};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::json::Json;
use crate::run::{run_with_factory, RunDefaults};
use crate::system::GossipSystem;
use crate::table::{rows_json, Table};

/// The round the rumor is injected (publicly known to the adversary; a
/// couple of warm-up rounds keep injection clear of round-0 startup).
const INJECT_AT: u64 = 2;
/// Rumor deadline (rounds). Must be generous enough that CONGOS engages
/// its proxy/group machinery: below ~2·n/BlockClock granularity the node
/// trims the deadline and falls back to shooting the rumor straight at its
/// destinations, which is exactly as identifying as direct unicast. 48 is
/// the smallest sweep-friendly value where the proxy, group-distribution
/// and gossip lanes all carry traffic at n ≤ 128.
const DEADLINE: u64 = 48;
/// Rounds past the deadline the tap keeps listening.
const TAIL: u64 = 8;
/// Destination-set size per rumor. Deliberately generous (a multicast-style
/// set): every destination is one more chance for the coalition to catch a
/// leaky protocol red-handed, which keeps the sweep's baseline separation
/// statistically solid on sparse topologies where most unicasts drop.
const DEST_SIZE: usize = 8;
/// Top-k rank threshold reported as `top3`.
const TOP_K: usize = 3;
/// Extra trials for the cheap baselines (direct/strong runs cost
/// microseconds of traffic next to a CONGOS substrate run, so their cells
/// can afford tight confidence intervals).
const CHEAP_MULT: u64 = 8;
/// Extra trials for the CONGOS rows of the asserted gate cell
/// (expander:4 at coalition 10%).
const GATE_MULT: u64 = 3;
/// Per-process per-round decoy-injection probability for the `congos`
/// (cover-traffic) rows. Decoys carry the same payload length and the same
/// deadline class as the real rumor, so their service traffic is
/// metadata-identical to it. 0.10 was picked by probing the gate cell
/// (expander:4, coalition 10%): rate 0.05 leaves first-contact
/// identification at ~12% (within 1σ of direct unicast's ~15%), 0.10
/// drops it to ~6%, and 0.20 only closes the last ~2.5 points to the
/// uniform floor while doubling the sweep's CONGOS traffic again.
const COVER_RATE: f64 = 0.10;

/// The per-protocol rumor-bearing tag sets the adversary filters on — its
/// best shot at separating rumor traffic from background. For CONGOS these
/// are the services a rumor *must* transit on its way out of the source
/// (proxy requests, group distribution, the shoot fallback). Under cover
/// traffic the very same tags fire for every decoy at every process, which
/// is exactly the defense being measured — the filter stays the
/// adversary's best choice, it just stops being discriminative.
fn rumor_tags(system: &str) -> &'static [&'static str] {
    match system {
        "congos" | "congos-nocover" => &["proxy", "group_dist", "shoot"],
        "direct" => &["direct"],
        "strong" => &["strong"],
        _ => &[],
    }
}

/// CONGOS in its Section 7 metadata-hiding deployment: cover traffic with
/// decoys that are metadata-identical to the experiment's real rumor.
fn cover_config() -> CongosConfig {
    CongosConfig::base().cover_traffic(CoverTrafficConfig {
        rate: COVER_RATE,
        data_len: 2,
        deadline: DEADLINE,
    })
}

/// SplitMix64 — decorrelates per-trial seeds from the sweep indices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cell's aggregated scores: (first-contact, ML, candidate count).
///
/// `system` names the row (and picks the adversary's tag filter);
/// `factory` builds the node, so configured CONGOS variants and plain
/// baselines share one code path.
fn run_cell<P>(
    system: &str,
    factory: impl Fn(ProcessId, usize, u64) -> P + Clone + 'static,
    n: usize,
    trials: u64,
    fraction_ppm: u32,
    cell: RunDefaults,
    base_seed: u64,
) -> (AttackScore, AttackScore, usize)
where
    P: GossipSystem + Send,
    P::Msg: Send + Sync,
    P::Input: From<RumorSpec> + Send,
    P::Output: Send,
{
    let rounds = INJECT_AT + DEADLINE + TAIL;
    let mut fc = AttackScore::new(TOP_K);
    let mut ml = AttackScore::new(TOP_K);
    let mut m_candidates = 0;
    for trial in 0..trials {
        let seed = mix(base_seed ^ mix(trial.wrapping_add(1)));
        // Fresh uniform source and destination set per trial, drawn from a
        // dedicated RNG (the engine's stream is untouched).
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x50BC_E5EED);
        let mut ids: Vec<ProcessId> = ProcessId::all(n).collect();
        ids.shuffle(&mut rng);
        let source = ids[0];
        let mut dest: Vec<ProcessId> = ids[1..1 + DEST_SIZE].to_vec();
        dest.sort_unstable();

        // The observing coalition: never the source it is looking for.
        let coalition = CoalitionSpec {
            fraction_ppm,
            seed: seed ^ 0x0B5E_11E5,
        };
        let members = coalition.members(n, Some(source));
        let mut tap = CoalitionTap::new(n, &members);
        let spec = cell.spec(n, seed, rounds);
        let workload = OneShot::new(
            Round(INJECT_AT),
            vec![(source, RumorSpec::new(0, vec![0xE1, 0x3A], DEADLINE, dest))],
        );
        run_with_factory::<P, _, _>(spec, factory.clone(), NoFailures, workload, &mut tap);

        let candidates: Vec<ProcessId> =
            ProcessId::all(n).filter(|p| !members.contains(p)).collect();
        m_candidates = candidates.len();
        let ctx = EstimatorCtx {
            log: tap.log(),
            candidates: &candidates,
            injected_at: Round(INJECT_AT),
            tags: rumor_tags(system),
        };
        fc.observe(&first_contact_posterior(&ctx), &candidates, source);
        let topo = Topology::build(cell.topology, n, seed);
        ml.observe(
            &MlEstimator::default().posterior(&ctx, &topo),
            &candidates,
            source,
        );
    }
    (fc, ml, m_candidates)
}

fn cells(full: bool) -> (usize, u64, Vec<TopologySpec>, Vec<u32>) {
    // Sized for a single-core CI box: one cover-traffic CONGOS trial costs
    // ~0.35 s at n = 32 and ~3 s at n = 64 (the substrate moves ~10⁵–10⁶
    // messages per run), so the quick sweep stays at n = 32.
    let n = if full { 64 } else { 32 };
    let trials = if full { 40 } else { 24 };
    let topologies = vec![
        TopologySpec::Complete,
        TopologySpec::Expander { degree: 4 },
        TopologySpec::churn(0.05),
    ];
    let fractions: Vec<u32> = if full {
        vec![20_000, 50_000, 100_000, 200_000, 350_000]
    } else {
        vec![50_000, 100_000, 200_000]
    };
    (n, trials, topologies, fractions)
}

/// The headline identification probability of a cell: the adversary runs
/// both estimators and keeps the better one.
fn best_p_id(fc: &AttackScore, ml: &AttackScore) -> f64 {
    fc.p_id().max(ml.p_id())
}

/// Runs E13 and returns its table.
///
/// Asserts the experiment's headline claim: at coalition fraction 10% on
/// `expander:4`, CONGOS's source-identification probability is strictly
/// below direct unicast's (whichever estimator each adversary prefers) —
/// and direct unicast on the complete graph leaks well above the uniform
/// baseline, so the apparatus demonstrably *can* identify sources when a
/// protocol leaks them.
pub fn run(full: bool, _defaults: &RunDefaults) -> Vec<Table> {
    let (n, trials, topologies, fractions) = cells(full);
    let base_seed = 0xE13_0001;

    let mut t = Table::new(
        "E13: source-identification probability vs coalition size",
        &[
            "topology",
            "system",
            "coalition%",
            "estimator",
            "trials",
            "m",
            "p_id%",
            "top3%",
            "eps",
            "uniform%",
        ],
    );

    // The acceptance-gate cells, captured while sweeping.
    let mut gate_congos: Option<f64> = None;
    let mut gate_direct: Option<f64> = None;
    let mut complete_direct: Option<(f64, usize)> = None;
    let mut complete_cover: Option<f64> = None;
    let mut complete_nocover: Option<f64> = None;

    for &topology in &topologies {
        for &fraction_ppm in &fractions {
            let gate_cell =
                topology == TopologySpec::Expander { degree: 4 } && fraction_ppm == 100_000;
            let congos_trials = if gate_cell {
                trials * GATE_MULT
            } else {
                trials
            };
            let cell = RunDefaults { topology };
            let mut sys_rows: Vec<(&'static str, AttackScore, AttackScore, usize)> = Vec::new();
            let (fc, ml, m) = run_cell(
                "congos",
                |id, n, _s| CongosNode::with_config(id, n, cover_config()),
                n,
                congos_trials,
                fraction_ppm,
                cell,
                base_seed,
            );
            sys_rows.push(("congos", fc, ml, m));
            let (fc, ml, m) = run_cell(
                "congos-nocover",
                CongosNode::new,
                n,
                congos_trials,
                fraction_ppm,
                cell,
                base_seed,
            );
            sys_rows.push(("congos-nocover", fc, ml, m));
            let (fc, ml, m) = run_cell(
                "direct",
                DirectNode::new,
                n,
                trials * CHEAP_MULT,
                fraction_ppm,
                cell,
                base_seed,
            );
            sys_rows.push(("direct", fc, ml, m));
            let (fc, ml, m) = run_cell(
                "strong",
                StronglyConfidentialNode::new,
                n,
                trials * CHEAP_MULT,
                fraction_ppm,
                cell,
                base_seed,
            );
            sys_rows.push(("strong", fc, ml, m));

            for (name, fc, ml, m) in &sys_rows {
                if gate_cell && *name == "congos" {
                    gate_congos = Some(best_p_id(fc, ml));
                }
                if gate_cell && *name == "direct" {
                    gate_direct = Some(best_p_id(fc, ml));
                }
                if topology.is_complete() && fraction_ppm == 100_000 {
                    match *name {
                        "direct" => complete_direct = Some((best_p_id(fc, ml), *m)),
                        "congos" => complete_cover = Some(best_p_id(fc, ml)),
                        "congos-nocover" => complete_nocover = Some(best_p_id(fc, ml)),
                        _ => {}
                    }
                }
                for (est, score) in [("first-contact", fc), ("ml", ml)] {
                    t.row(vec![
                        topology.to_string(),
                        name.to_string(),
                        format!("{:.1}", fraction_ppm as f64 / 10_000.0),
                        est.to_string(),
                        score.trials().to_string(),
                        m.to_string(),
                        format!("{:.2}", 100.0 * score.p_id()),
                        format!("{:.2}", 100.0 * score.top_k()),
                        format!("{:.3}", score.epsilon(*m)),
                        format!("{:.2}", 100.0 / *m as f64),
                    ]);
                }
            }
        }
    }

    let (gc, gd) = (
        gate_congos.expect("sweep covers the gate cell"),
        gate_direct.expect("sweep covers the gate cell"),
    );
    assert!(
        gc < gd,
        "E13 gate: CONGOS p_id ({gc:.4}) must be strictly below direct \
         unicast's ({gd:.4}) at coalition 10% on expander:4"
    );
    if let Some((p, m)) = complete_direct {
        assert!(
            p > 2.0 / m as f64,
            "sanity: direct unicast on the complete graph must leak the \
             source well above uniform (p_id {p:.4}, uniform {:.4})",
            1.0 / m as f64
        );
    }
    if let (Some(cover), Some(nocover)) = (complete_cover, complete_nocover) {
        assert!(
            cover < nocover,
            "cover traffic must reduce identification on the complete graph \
             at coalition 10% (with {cover:.4}, without {nocover:.4})"
        );
    }

    t.note("p_id = probability the adversary's (tie-randomized) argmax is the true source; uniform% = blind guessing");
    t.note("eps = ln(p(m-1)/(1-p)), Laplace-smoothed — the papers' DP-style leakage bound; 0 = no leakage");
    t.note("each cell aggregates independent one-rumor trials: fresh seed, uniform source, fresh coalition excluding the source");
    t.note("congos = Section 7 cover-traffic deployment; congos-nocover = base protocol (quiescent net: the proxy handshake identifies the source)");
    t.note("gate (asserted): congos < direct at coalition 10% on expander:4, best estimator per system");
    vec![t]
}

/// Renders E13 tables as the `BENCH_anonymity.json` row set (one JSON
/// object per table row, keyed by column name).
pub fn bench_json(tables: &[Table]) -> Json {
    Json::object([
        ("suite", Json::from("anonymity")),
        ("rows", rows_json(tables)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep cell (not the full quick sweep — that is the CI
    /// binary's job): direct unicast on the complete graph with a large
    /// coalition must leak more than cover-traffic CONGOS in the same
    /// setting, while base (no-cover) CONGOS leaks *at least as much* as
    /// the cover-traffic deployment — the E13 headline in miniature.
    #[test]
    fn e13_direct_leaks_more_than_congos_on_complete() {
        let (fc_d, ml_d, m) = run_cell(
            "direct",
            DirectNode::new,
            16,
            12,
            250_000,
            RunDefaults::default(),
            0xA11CE,
        );
        let (fc_c, ml_c, m2) = run_cell(
            "congos",
            |id, n, _s| CongosNode::with_config(id, n, cover_config()),
            16,
            12,
            250_000,
            RunDefaults::default(),
            0xA11CE,
        );
        assert_eq!(m, m2);
        let d = best_p_id(&fc_d, &ml_d);
        let c = best_p_id(&fc_c, &ml_c);
        assert!(
            d > c,
            "direct ({d:.3}) should leak more than congos ({c:.3}) with a 25% coalition"
        );
        assert!(
            d > 1.5 / m as f64,
            "direct must beat uniform ({m} candidates)"
        );
        let (fc_nc, ml_nc, _) = run_cell(
            "congos-nocover",
            CongosNode::new,
            16,
            12,
            250_000,
            RunDefaults::default(),
            0xA11CE,
        );
        let nc = best_p_id(&fc_nc, &ml_nc);
        assert!(
            nc >= c,
            "base congos ({nc:.3}) should leak at least as much as the \
             cover-traffic deployment ({c:.3})"
        );
    }

    #[test]
    fn e13_bench_json_schema() {
        // Schema check on a synthetic table — the JSON writer must key rows
        // by the E13 column names and carry the anonymity suite marker.
        let mut t = Table::new(
            "E13: source-identification probability vs coalition size",
            &[
                "topology",
                "system",
                "coalition%",
                "estimator",
                "trials",
                "m",
                "p_id%",
                "top3%",
                "eps",
                "uniform%",
            ],
        );
        t.row(vec![
            "complete".into(),
            "congos".into(),
            "10.0".into(),
            "ml".into(),
            "40".into(),
            "58".into(),
            "1.72".into(),
            "5.17".into(),
            "0.000".into(),
            "1.72".into(),
        ]);
        let doc = bench_json(&[t]);
        assert_eq!(doc["suite"].as_str(), Some("anonymity"));
        let rows = doc["rows"].as_array().expect("rows");
        assert_eq!(rows.len(), 1);
        for key in ["topology", "system", "estimator"] {
            assert!(rows[0][key].as_str().is_some(), "row missing key {key}");
        }
        for key in ["coalition%", "p_id%", "top3%", "eps"] {
            assert!(rows[0][key].as_f64().is_some(), "row missing number {key}");
        }
    }
}
