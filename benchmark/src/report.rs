//! Running every workload (each pass in its own child process, because the
//! allocator's high-water mark is process-wide), the combined report, and
//! the repeat check against the bounds in `BENCHMARK.json`.

use std::io;
use std::process::Command;

use congos_harness::Json;

use crate::workloads::WORKLOADS;
use crate::OUT_DIR;

/// End-to-end metrics that are pure functions of `(seed, seconds)`: two runs
/// of the same code must agree on them to the digit.
const EXACT: [&str; 4] = [
    "msgs_per_round_max",
    "delivery_rounds_p50",
    "delivery_rounds_p90",
    "on_time_share",
];

pub fn result_path(workload: &str, traced: bool) -> String {
    format!("{OUT_DIR}/result-{workload}-trace{}.json", u8::from(traced))
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were measured: printed with every report.
pub fn host_block(over_sockets: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    Json::object([
        ("nproc", Json::from(nproc as u64)),
        ("rustc", Json::from(first_line_of("rustc", &["-V"]))),
        (
            "commit",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "network",
            Json::from(if over_sockets {
                "TCP traffic crossed this host's loopback interface (127.0.0.1), not a real link"
            } else {
                "in-process simulator: no sockets"
            }),
        ),
    ])
}

fn read_json(path: &str) -> io::Result<Json> {
    Json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}")))
}

/// Runs one full set: every workload, untraced then traced, each in a child
/// process. Returns `{workload: {"end_to_end": result, "per_layer": result}}`
/// and whether every child passed its checks.
fn run_set(seed: u64, seconds: f64) -> io::Result<(Json, bool)> {
    let exe = std::env::current_exe()?;
    let mut set = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut passes = Vec::new();
        for traced in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()?;
            ok &= status.success();
            passes.push(read_json(&result_path(w.name, traced))?);
            println!();
        }
        let same_digests = digest_prefix_matches(&passes[0], &passes[1]);
        println!(
            "check {}: {} untraced-pass digests equal the traced pass's on the shared sub-seeds\n",
            if same_digests { "PASS" } else { "FAIL" },
            w.name
        );
        ok &= same_digests;
        let mut passes = passes.into_iter();
        set.push((
            w.name,
            Json::object([
                ("end_to_end", passes.next().expect("untraced pass")),
                ("per_layer", passes.next().expect("traced pass")),
            ]),
        ));
    }
    Ok((Json::object(set), ok))
}

/// The traced pass measures half as many sub-seeds as the untraced pass;
/// the ones it does measure must digest identically.
fn digest_prefix_matches(untraced: &Json, traced: &Json) -> bool {
    match (untraced["digests"].as_array(), traced["digests"].as_array()) {
        (Some(u), Some(t)) => !t.is_empty() && t.len() <= u.len() && u[..t.len()] == *t,
        _ => false,
    }
}

fn metric(set: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    set[workload][pass]["metrics"][name]["value"].as_f64()
}

/// Runs `repeat` full sets, writes the first as `OUT_DIR/report.json`, and
/// with two or more sets compares the first two metric by metric.
pub fn run_sets(seed: u64, seconds: f64, repeat: usize) -> io::Result<bool> {
    let mut sets = Vec::new();
    let mut ok = true;
    for i in 0..repeat {
        println!("## set {} of {repeat}\n", i + 1);
        let (set, set_ok) = run_set(seed, seconds)?;
        ok &= set_ok;
        sets.push(set);
    }
    let report = Json::object([
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("host", host_block(true)),
        ("sets", Json::Array(sets.clone())),
    ]);
    let path = format!("{OUT_DIR}/report.json");
    std::fs::write(&path, report.to_string_compact() + "\n")?;
    println!("report: {path}");
    if repeat >= 2 {
        ok &= compare(&sets[0], &sets[1])?;
    }
    Ok(ok)
}

/// Prints, per end-to-end metric × workload, both values, their relative
/// difference and PASS / UNRESOLVED against the bound in `BENCHMARK.json`.
/// Exact metrics must match to the digit (FAIL otherwise).
fn compare(a: &Json, b: &Json) -> io::Result<bool> {
    let benchmark = read_json("BENCHMARK.json")?;
    let declared = benchmark["end_to_end"].as_array().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "BENCHMARK.json: no end_to_end")
    })?;
    println!("## repeat check: set 1 vs set 2\n");
    println!(
        "{:<20} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "rel diff", "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in declared {
            let name = m["name"].as_str().unwrap_or("?");
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let (Some(x), Some(y)) = (
                metric(a, w.name, "end_to_end", name),
                metric(b, w.name, "end_to_end", name),
            ) else {
                println!("{:<20} {:<22} missing from a report  FAIL", w.name, name);
                ok = false;
                continue;
            };
            let rel = (y - x).abs() / x.abs();
            let verdict = if EXACT.contains(&name) {
                if x == y {
                    "PASS (exact)"
                } else {
                    ok = false;
                    "FAIL (must match to the digit)"
                }
            } else if rel <= bound {
                "PASS"
            } else {
                "UNRESOLVED"
            };
            println!(
                "{:<20} {:<22} {:>16.6} {:>16.6} {:>8.2}% {:>6.1}%  {verdict}",
                w.name,
                name,
                x,
                y,
                rel * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}
