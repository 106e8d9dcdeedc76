//! The one experiment entry point (see [`USAGE`] and EXPERIMENTS.md).
//!
//! `<name>` is a row of `experiments::REGISTRY` (`exp --list` prints them);
//! `all` runs every experiment that can share a process and, with `--json`,
//! writes all tables as one document; `report` renders such a document as
//! markdown — the generator behind EXPERIMENTS.md's measured sections.
//!
//! `--topology` is parsed once into a `RunDefaults`, checked to exist at
//! every system size the chosen experiment runs, and handed to the
//! experiment; the engine picks its own parallelism, so there is no backend
//! flag. A flag the chosen experiment would ignore is an error, not a
//! no-op: E2/E7 pin the complete graph, E13/E14 sweep the
//! topology themselves, `--json` applies to `all` and to the experiments
//! that emit a `BENCH_*.json` row set (it overrides the default path),
//! `--budget-mib` to the memory sweep (exit 1 if peak RSS exceeds it — the
//! `scripts/ci.sh mem` gate). Unknown flags and names print the usage line
//! and exit 2.

use congos_harness::experiments::{self, Experiment};
use congos_harness::{mem, tables_to_markdown, Json, RunDefaults, Table};

const USAGE: &str = "\
usage: exp <name|all> [--full] [--csv] [--json PATH]
           [--topology complete|expander:D|churn:P[@BASE]] [--budget-mib X]
       exp report <results.json>
       exp --list";

/// What to do, after every flag has been checked against the target.
enum Command {
    List,
    Report(String),
    All(Options),
    One(&'static Experiment, Options),
}

struct Options {
    full: bool,
    csv: bool,
    json: Option<String>,
    budget_mib: Option<f64>,
    defaults: RunDefaults,
}

fn parse(args: &[String]) -> Result<Command, String> {
    match args {
        [list] if list == "--list" => return Ok(Command::List),
        [report, path] if report == "report" => return Ok(Command::Report(path.clone())),
        _ => {}
    }
    let (defaults, rest) = RunDefaults::from_args(args).map_err(|e| e.to_string())?;
    let gave = |flag: &str| args.iter().any(|a| a == flag);
    let mut opts = Options {
        full: false,
        csv: false,
        json: None,
        budget_mib: None,
        defaults,
    };
    let mut target = None;
    let mut it = rest.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--csv" => opts.csv = true,
            "--json" => opts.json = Some(it.next().ok_or("--json needs a path")?),
            "--budget-mib" => {
                let v = it.next().ok_or("--budget-mib needs a number")?;
                let mib = v
                    .parse()
                    .map_err(|e| format!("bad --budget-mib value {v:?}: {e}"))?;
                opts.budget_mib = Some(mib);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ if target.is_some() => return Err(format!("unexpected argument {arg:?}")),
            _ => target = Some(arg),
        }
    }
    let target = target.ok_or("no experiment named")?;

    if target == "all" {
        if gave("--topology") {
            return Err("all takes no --topology: some experiments pin or sweep it".into());
        }
        if opts.budget_mib.is_some() {
            return Err("--budget-mib applies to the memory sweep (e3m) only".into());
        }
        return Ok(Command::All(opts));
    }
    let exp = experiments::find(&target)
        .ok_or_else(|| format!("unknown experiment {target:?} (see exp --list)"))?;
    let name = exp.name;
    match exp.topology_ns {
        None if gave("--topology") => {
            return Err(format!(
                "{name} does not take --topology: it pins or sweeps the topology itself"
            ));
        }
        None => {}
        Some(ns) => {
            let topology = opts.defaults.topology;
            for n in ns(opts.full) {
                topology
                    .validate(n)
                    .map_err(|e| format!("{name} runs n = {n}: no {topology} topology: {e}"))?;
            }
        }
    }
    if opts.json.is_some() && exp.bench.is_none() {
        return Err(format!("{name} writes no BENCH row set: no --json"));
    }
    if opts.budget_mib.is_some() && !exp.measures_rss {
        return Err("--budget-mib applies to the memory sweep (e3m) only".into());
    }
    Ok(Command::One(exp, opts))
}

fn print_tables(tables: &[Table], csv: bool) {
    for table in tables {
        if csv {
            println!("# {}", table.title());
            print!("{}", table.to_csv());
        } else {
            table.print();
        }
    }
}

/// Writes `doc` to `path`; a failure (say, a default `results/…` path when
/// run from outside the repo root) is reported, not fatal.
fn write_json(path: &str, doc: &Json) {
    match std::fs::write(path, doc.to_string_pretty() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn report(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let tables: Vec<Table> = doc["tables"]
        .as_array()
        .and_then(|ts| ts.iter().map(Table::from_json).collect())
        .ok_or_else(|| format!("{path} is not an `exp all --json` document"))?;
    Ok(format!(
        "# Experiment report\n\nGenerated from `{path}` (full sweeps: {}).\n\n{}",
        doc["full"].as_bool().unwrap_or(false),
        tables_to_markdown(&tables)
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse(&args).unwrap_or_else(|e| {
        eprintln!("exp: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match command {
        Command::List => print!("{}", experiments::list()),
        Command::Report(path) => match report(&path) {
            Ok(markdown) => print!("{markdown}"),
            Err(e) => {
                eprintln!("exp: {e}");
                std::process::exit(1);
            }
        },
        Command::All(opts) => {
            let tables = experiments::run_all(opts.full, &opts.defaults);
            print_tables(&tables, opts.csv);
            if let Some(path) = &opts.json {
                let doc = Json::object([
                    ("suite", Json::from("confidential-gossip experiments")),
                    ("full", Json::from(opts.full)),
                    (
                        "tables",
                        Json::Array(tables.iter().map(Table::to_json).collect()),
                    ),
                ]);
                write_json(path, &doc);
            }
            mem::print_process_summary("exp all");
        }
        Command::One(exp, opts) => {
            let tables = (exp.run)(opts.full, &opts.defaults);
            print_tables(&tables, opts.csv);
            if let Some(bench) = exp.bench {
                let path = opts.json.as_deref().unwrap_or(bench.path);
                write_json(path, &(bench.json)(&tables));
            }
            mem::print_process_summary(&format!("exp {}", exp.name));
            if let Some(budget) = opts.budget_mib {
                let peak = mem::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
                if peak > budget {
                    eprintln!("FAIL: peak-RSS {peak:.1} MiB exceeds the {budget:.1} MiB budget");
                    std::process::exit(1);
                }
                eprintln!("peak-RSS {peak:.1} MiB within the {budget:.1} MiB budget");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_the_documented_grammar() {
        assert!(matches!(parse_strs(&["--list"]), Ok(Command::List)));
        assert!(matches!(
            parse_strs(&["report", "results/x.json"]),
            Ok(Command::Report(p)) if p == "results/x.json"
        ));
        match parse_strs(&["e1", "--full", "--csv", "--topology", "expander:4"]) {
            Ok(Command::One(exp, opts)) => {
                assert_eq!(exp.name, "e1");
                assert!(opts.full && opts.csv && !opts.defaults.topology.is_complete());
            }
            _ => panic!("e1 honours --topology"),
        }
        assert!(matches!(
            parse_strs(&["all", "--json", "x.json"]),
            Ok(Command::All(_))
        ));
        for ok in [
            &["e7", "--csv"][..],
            &["e3m", "--json", "x.json", "--budget-mib", "1024"],
            // Feasible at every size: E15 quick n = 4, full n = 4 and 16;
            // E3m full from n = 1024, quick from n = 256.
            &["e15", "--full", "--topology", "expander:3"],
            &["e3m", "--full", "--topology", "expander:300"],
        ] {
            assert!(matches!(parse_strs(ok), Ok(Command::One(..))), "{ok:?}");
        }
    }

    #[test]
    fn rejects_what_it_would_otherwise_ignore() {
        for bad in [
            &["e1", "--ful"][..],
            &["e99"],
            &[],
            &["e1", "e2"],
            &["e1", "--quick"],
            &["e14", "--topology", "complete"],
            &["e13", "--topology", "expander:4"],
            &["e2", "--topology", "expander:4"],
            &["e7", "--topology", "churn:0.05"],
            &["e1", "--json", "x.json"],
            &["e1", "--budget-mib", "10"],
            &["e3m", "--budget-mib", "lots"],
            &["all", "--topology", "expander:4"],
            // Infeasible at a size the experiment runs.
            &["e15", "--full", "--topology", "expander:5"],
            &["e3m", "--topology", "expander:300"],
            &["e1", "--topology", "churn:0.1@expander:33"],
            &["--list", "e1"],
            &["report"],
            &["report", "a.json", "--csv"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn a_topology_missing_at_a_run_size_is_a_usage_error() {
        // E15's quick row runs n = 4, where no 4-regular graph exists; the
        // row itself would panic inside the cluster.
        let err = parse_strs(&["e15", "--topology", "expander:4"])
            .err()
            .expect("rejected before running");
        assert!(
            err.contains("n = 4") && err.contains("at least 5 processes"),
            "{err}"
        );
    }
}
