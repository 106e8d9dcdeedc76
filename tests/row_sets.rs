//! The committed `results/BENCH_*.json` row sets are typed: each parses, and
//! every value that is a number is stored as a JSON number, never as a
//! string. `table::rows_json` writes them that way; this guards the files
//! themselves, so a hand edit or a stale copy cannot slip back to strings.

use confidential_gossip::harness::Json;

const ROW_SETS: [(&str, &str); 4] = [
    (
        "BENCH_memory.json",
        include_str!("../results/BENCH_memory.json"),
    ),
    (
        "BENCH_anonymity.json",
        include_str!("../results/BENCH_anonymity.json"),
    ),
    (
        "BENCH_topology.json",
        include_str!("../results/BENCH_topology.json"),
    ),
    (
        "BENCH_net_loadtest.json",
        include_str!("../results/BENCH_net_loadtest.json"),
    ),
];

/// Every string anywhere in `v` that parses as a finite `f64`.
fn numeric_strings(v: &Json, out: &mut Vec<String>) {
    match v {
        Json::String(s) if s.parse::<f64>().is_ok_and(f64::is_finite) => out.push(s.clone()),
        Json::Array(items) => items.iter().for_each(|x| numeric_strings(x, out)),
        Json::Object(map) => map.values().for_each(|x| numeric_strings(x, out)),
        _ => {}
    }
}

#[test]
fn committed_row_sets_parse_and_store_numbers_as_numbers() {
    for (name, text) in ROW_SETS {
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        let mut strings = Vec::new();
        numeric_strings(&doc, &mut strings);
        assert!(
            strings.is_empty(),
            "{name} stores {} numbers as strings, e.g. {:?}",
            strings.len(),
            &strings[..strings.len().min(3)]
        );
    }
}
