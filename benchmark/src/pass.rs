//! One pass (untraced or traced) of one workload: measure, check, report.

use std::collections::BTreeMap;
use std::io;

use congos_harness::Json;

use crate::stats::{
    grouped_percentile, highest_supported_percentile, median, percentile, samples_beyond,
};
use crate::unit::Unit;
use crate::workloads::{unit_seed, Kind, Workload};
use crate::{probes, report, sim, spec, tcp, trace, OUT_DIR};

/// Set-up samples a run collects: the measured units' own, then set-ups
/// that are built, timed and dropped — at least `SETUP_SAMPLES_MIN`, and for
/// set-ups that take under a millisecond as many more as fit into
/// `SETUP_EXTRA_S` of set-up time, so their median is not timer noise.
const SETUP_SAMPLES_MIN: usize = 15;
const SETUP_SAMPLES_MAX: usize = 256;
const SETUP_EXTRA_S: f64 = 0.25;

fn run_unit(w: &Workload, seed: u64, traced: bool) -> io::Result<Unit> {
    match w.kind {
        Kind::Tcp => tcp::run_unit(w, seed, traced),
        _ => Ok(sim::run_unit(w, seed, traced)),
    }
}

fn time_setup(w: &Workload, seed: u64) -> io::Result<f64> {
    match w.kind {
        Kind::Tcp => tcp::time_setup(w, seed),
        _ => Ok(sim::time_setup(w, seed)),
    }
}

/// Everything one pass measured.
struct Measured {
    /// Untraced units, one per sub-seed.
    plain: Vec<Unit>,
    /// Traced units on the same sub-seeds (traced pass only).
    spanned: Vec<Unit>,
    setups_s: Vec<f64>,
}

impl Measured {
    fn units(&self) -> impl Iterator<Item = &Unit> {
        self.plain.iter().chain(&self.spanned)
    }
}

/// The untraced pass measures `units` untraced units. The traced pass
/// splits them between an untraced and a traced half on the same sub-seeds,
/// alternating which goes first, so the digests can be compared and the
/// tracing overhead is a same-process difference.
fn measure(w: &Workload, seed: u64, units: usize, traced: bool) -> io::Result<Measured> {
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let pairs = if traced { units.div_ceil(2) } else { units };
    for i in 0..pairs {
        let s = unit_seed(seed, i);
        if traced && i % 2 == 1 {
            spanned.push(run_unit(w, s, true)?);
            plain.push(run_unit(w, s, false)?);
        } else {
            plain.push(run_unit(w, s, false)?);
            if traced {
                spanned.push(run_unit(w, s, true)?);
            }
        }
    }
    let mut setups_s: Vec<f64> = plain.iter().chain(&spanned).map(|u| u.setup_s).collect();
    let mut extra_s = 0.0;
    while setups_s.len() < SETUP_SAMPLES_MIN
        || (extra_s < SETUP_EXTRA_S && setups_s.len() < SETUP_SAMPLES_MAX)
    {
        let s = time_setup(w, unit_seed(seed, setups_s.len()))?;
        extra_s += s;
        setups_s.push(s);
    }
    Ok(Measured {
        plain,
        spanned,
        setups_s,
    })
}

/// A named correctness check and whether it held.
struct Check {
    what: String,
    ok: bool,
}

/// The correctness gate, run outside every timed region.
fn check(w: &Workload, m: &Measured) -> io::Result<Vec<Check>> {
    let total = |f: fn(&Unit) -> u64| -> u64 { m.units().map(f).sum() };
    let attempted = total(|u| u.assessment.admissible);
    let failed = total(|u| u.assessment.failed());
    let wrong_payload = total(|u| u.assessment.wrong_payload);
    let wrong_destination = total(|u| u.assessment.wrong_destination);
    let mut checks = vec![
        Check {
            what: format!(
                "every admissible (rumor, destination) pair delivered on time \
                 ({failed} of {attempted} failed)"
            ),
            ok: failed == 0 && attempted > 0,
        },
        Check {
            what: format!(
                "every delivered payload equals the injected one ({wrong_payload} differ)"
            ),
            ok: wrong_payload == 0,
        },
        Check {
            what: format!(
                "every delivery is at a destination of its rumor ({wrong_destination} are not)"
            ),
            ok: wrong_destination == 0,
        },
    ];
    for (p, t) in m.plain.iter().zip(&m.spanned) {
        checks.push(Check {
            what: format!(
                "unit seed {}: untraced digest {:#018x} equals traced digest {:#018x}",
                p.seed, p.assessment.digest, t.assessment.digest
            ),
            ok: p.assessment.digest == t.assessment.digest,
        });
    }
    if w.kind == Kind::Tcp {
        for u in &m.plain {
            let reference = tcp::reference_digest(w, u.seed)?;
            checks.push(Check {
                what: format!(
                    "unit seed {}: TCP digest {:#018x} equals run_local_cluster digest \
                     {reference:#018x}",
                    u.seed, u.assessment.digest
                ),
                ok: u.assessment.digest == reference,
            });
        }
    }
    for u in &m.spanned {
        checks.push(Check {
            what: format!("unit seed {}: spans nest without overlap", u.seed),
            ok: trace::nests_without_overlap(&u.spans),
        });
        if w.kind != Kind::Tcp {
            let phases: f64 = [
                "sim.engine.send_ms",
                "adversary.decide_ms",
                "sim.engine.route_ms",
                "sim.engine.compute_ms",
            ]
            .iter()
            .map(|&phase| u.layer[phase])
            .sum();
            let rounds: f64 = u.round_ms.iter().sum();
            checks.push(Check {
                what: format!(
                    "unit seed {}: phase times sum to the round wall within 2 % \
                     ({phases:.3} ms vs {rounds:.3} ms)",
                    u.seed
                ),
                ok: (phases - rounds).abs() <= 0.02 * rounds,
            });
        }
    }
    Ok(checks)
}

/// Median over units of a per-unit value.
fn per_unit(units: &[Unit], value: impl Fn(&Unit) -> f64) -> f64 {
    median(&units.iter().map(value).collect::<Vec<_>>())
}

/// The end-to-end metrics, from the untraced units.
fn end_to_end(w: &Workload, m: &Measured) -> BTreeMap<String, f64> {
    let units = &m.plain;
    let latencies: Vec<f64> = units
        .iter()
        .flat_map(|u| u.assessment.latencies.clone())
        .collect();
    let on_time: u64 = units.iter().map(|u| u.assessment.on_time).sum();
    let admissible: u64 = units.iter().map(|u| u.assessment.admissible).sum();
    let live_peak = units.iter().map(|u| u.live_peak_bytes).max().unwrap_or(0);
    println!(
        "samples: {} units of {} round walls each (a unit's p90 has {} beyond it; highest \
         percentile with ten beyond it: p{}), {} delivery latencies, {} set-ups",
        units.len(),
        w.rounds,
        samples_beyond(w.rounds as usize, 90.0),
        highest_supported_percentile(w.rounds as usize).unwrap_or(0.0),
        latencies.len(),
        m.setups_s.len()
    );
    let rounds = w.rounds as f64;
    BTreeMap::from(
        [
            ("setup_s", median(&m.setups_s)),
            ("rounds_per_s", per_unit(units, |u| rounds / u.wall_s)),
            ("msgs_per_s", per_unit(units, |u| u.msgs as f64 / u.wall_s)),
            (
                "round_ms_p50",
                per_unit(units, |u| percentile(&u.round_ms, 50.0)),
            ),
            (
                "round_ms_p90",
                per_unit(units, |u| percentile(&u.round_ms, 90.0)),
            ),
            (
                "alloc_bytes_per_msg",
                per_unit(units, |u| u.alloc_bytes as f64 / u.msgs as f64),
            ),
            ("live_peak_mib", live_peak as f64 / (1024.0 * 1024.0)),
            (
                "msgs_per_round_max",
                per_unit(units, |u| u.msgs_per_round_max as f64),
            ),
            ("delivery_rounds_p50", grouped_percentile(&latencies, 50.0)),
            ("delivery_rounds_p90", grouped_percentile(&latencies, 90.0)),
            ("on_time_share", on_time as f64 / admissible as f64),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    )
}

/// The per-layer metrics: medians over the traced units, the layer probes,
/// and the tracing overhead.
fn per_layer(seed: u64, m: &Measured) -> BTreeMap<String, f64> {
    let mut layer = probes::run_all(seed);
    // Every traced unit of a workload reports the same names.
    for name in m.spanned[0].layer.keys() {
        layer.insert(name.clone(), per_unit(&m.spanned, |u| u.layer[name]));
    }
    let plain_wall = per_unit(&m.plain, |u| u.wall_s);
    let traced_wall = per_unit(&m.spanned, |u| u.wall_s);
    layer.insert(
        "bench.trace_overhead_share".into(),
        (traced_wall - plain_wall) / plain_wall,
    );
    layer
}

/// Runs one pass, prints the report, writes
/// `OUT_DIR/result-<workload>-trace<k>.json` (and the spans of the first
/// traced unit). `Ok(true)` when every check passed.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> io::Result<bool> {
    let units = w.units_for(seconds);
    println!(
        "# congos-benchmark workload={} seed={seed} seconds={seconds} trace={}",
        w.name,
        u8::from(traced)
    );
    let host = report::host_block(w.kind == Kind::Tcp);
    println!("host: {}", host.to_string_compact());
    println!(
        "sizes: n={} rounds={} inject_rounds={} rate={}/round dests={} payload={}B deadline={} \
         units={units} (one per {} s of --seconds)",
        w.n,
        w.rounds,
        w.inject_rounds(),
        w.rate,
        w.dests,
        w.payload,
        w.deadline,
        w.budget_s
    );

    let m = measure(w, seed, units, traced)?;
    let checks = check(w, &m)?;
    let (declared, mut values): (&[(&str, &str)], _) = if traced {
        (&spec::PER_LAYER, per_layer(seed, &m))
    } else {
        (&spec::END_TO_END, end_to_end(w, &m))
    };

    for u in m.units() {
        println!(
            "unit seed={} traced={} setup={:.6}s wall={:.4}s msgs={} digest={:#018x}",
            u.seed,
            !u.spans.is_empty(),
            u.setup_s,
            u.wall_s,
            u.msgs,
            u.assessment.digest
        );
    }
    let mut metrics = Vec::new();
    for &(name, unit) in declared {
        // A layer this workload does not exercise reads 0.
        let value = values.remove(name).unwrap_or(0.0);
        println!("metric {name} = {value} {unit}");
        metrics.push((
            name,
            Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
        ));
    }
    assert!(values.is_empty(), "undeclared metrics: {values:?}");
    for c in &checks {
        println!("check {}: {}", if c.ok { "PASS" } else { "FAIL" }, c.what);
    }

    let correct = checks.iter().all(|c| c.ok);
    let attempted: u64 = m.units().map(|u| u.assessment.admissible).sum();
    let failed: u64 = m.units().map(|u| u.assessment.failed()).sum();
    let outcome = [
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::object(metrics)),
    ];

    std::fs::create_dir_all(OUT_DIR)?;
    let digests = m
        .plain
        .iter()
        .map(|u| Json::from(format!("{:#018x}", u.assessment.digest)))
        .collect();
    let result = Json::object(outcome.iter().cloned().chain([
        ("workload", Json::from(w.name)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("traced", Json::from(traced)),
        ("host", host),
        ("digests", Json::Array(digests)),
    ]));
    std::fs::write(
        report::result_path(w.name, traced),
        result.to_string_compact() + "\n",
    )?;
    if let Some(first) = m.spanned.first() {
        let path = format!("{OUT_DIR}/trace-{}.json", w.name);
        std::fs::write(
            &path,
            trace::to_json(&first.spans).to_string_compact() + "\n",
        )?;
        println!(
            "trace: {} spans of unit seed {} written to {path}",
            first.spans.len(),
            first.seed
        );
    }
    // The contract's result line: the last line of standard output.
    println!("{}", Json::object(outcome).to_string_compact());
    Ok(correct)
}
