#!/usr/bin/env bash
# Tier-1 CI for the confidential-gossip workspace.
#
#   scripts/ci.sh            # tier1: build + root tests + the sim, gossip,
#                            #        congos, adversary and baselines crate
#                            #        tests + from the congos-harness lib
#                            #        (otherwise outside tier-1) the E10 and
#                            #        E11 tests, the only ones that read
#                            #        simulator bytes + the benchmark
#                            #        package (its pinned API surface) +
#                            #        every target below
#   scripts/ci.sh topo       # topology target only: topology-differential
#                            #        suite, topology proptests, and the
#                            #        `exp e14` quick smoke (writes
#                            #        target/BENCH_topology_smoke.json)
#   scripts/ci.sh mem        # memory target only: fragstore proptests and
#                            #        the `exp e3m` small-n smoke sweep
#                            #        under a hard peak-RSS budget
#   scripts/ci.sh net        # network target only: TCP-vs-simulator
#                            #        loopback differential suite, the
#                            #        congos-net package tests (codec
#                            #        corruption proptests, rumor-table and
#                            #        transport tests; debug and release),
#                            #        the congos-node multi-process tests
#                            #        and, from the congos-harness lib, the
#                            #        `Cluster` unit tests and the TCP
#                            #        coalition-tap test (every cluster node
#                            #        runs the confidentiality auditor)
#   scripts/ci.sh loadtest   # quick congos-loadtest gate: a small loopback
#                            #        run must deliver something and emit a
#                            #        report with latency percentiles
#   scripts/ci.sh anonymity  # source-anonymity target: predict-subsystem
#                            #        proptests, the tap golden-digest
#                            #        determinism test, and the `exp e13`
#                            #        quick sweep (asserts congos < direct
#                            #        at coalition 10% on expander:4)
#   scripts/ci.sh full       # tier1 + the full workspace test suite
#
# The differential suite (part of the root tests) compares the engine
# backends pairwise from inside each test, so one pass covers them all;
# tier1 runs its backend-equivalence module once more in release.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${1:-tier1}"

run_topo() {
    echo "==> topo: topology-differential suite"
    cargo test -q --test differential topology_differential
    echo "==> topo: topology invariant proptests"
    cargo test -q -p congos-sim --test topology_prop
    echo "==> topo: exp e14 smoke (quick sweep)"
    # Scratch output path so the smoke cannot clobber the committed
    # results/BENCH_topology.json (regenerate that by running
    # `exp e14` from the repo root).
    out=target/BENCH_topology_smoke.json
    cargo run --release -q -p congos-harness --bin exp -- e14 --json "$out" >/dev/null
    echo "    wrote $out"
}

run_mem() {
    echo "==> mem: fragment-store proptests"
    cargo test -q -p congos --test fragstore_prop
    echo "==> mem: exp e3m smoke sweep under a hard peak-RSS budget"
    # The quick sweep (n ≤ 1024) peaks around 450 MiB; the 1024 MiB budget
    # is a 2× regression gate, not a tight fit. The smoke row set goes to a
    # scratch path so it cannot clobber the committed full-sweep
    # results/BENCH_memory.json (regenerate that with
    # `exp e3m --full`).
    cargo run --release -q -p congos-harness --bin exp -- e3m \
        --json target/BENCH_memory_smoke.json --budget-mib 1024 >/dev/null
}

run_net() {
    echo "==> net: TCP-vs-simulator loopback differential suite"
    cargo test -q --test net_differential
    echo "==> net: congos-net package tests (codec proptests, rumor tables, transport), debug and release"
    cargo test -q -p congos-net
    cargo test -q --release -p congos-net
    echo "==> net: congos-node multi-process tests"
    cargo test -q -p congos-harness --test multiprocess
    echo "==> net: Cluster unit tests, the TCP coalition-tap test among them"
    cargo test -q -p congos-harness --lib -- cluster::
}

run_loadtest() {
    echo "==> loadtest: small loopback run, percentile report gate"
    # Scratch output path so the quick gate cannot clobber the committed
    # full-config results/BENCH_net_loadtest.json (regenerate that by
    # running congos-loadtest with defaults from the repo root).
    out=target/BENCH_net_loadtest_smoke.json
    cargo run --release -q -p congos-harness --bin congos-loadtest -- \
        --n 4 --base-port 20980 --rounds 40 --deadline 16 --duration 8 \
        --rate 2 --out "$out" >/dev/null
    for key in '"p50"' '"p99"' '"delivered_pairs"'; do
        grep -q "$key" "$out" || {
            echo "loadtest report $out is missing $key" >&2
            exit 1
        }
    done
    echo "    wrote $out (p50/p99 present)"
}

run_anonymity() {
    echo "==> anonymity: predict-subsystem unit tests + proptests"
    cargo test -q -p congos-adversary predict
    cargo test -q -p congos-adversary --test predict_prop
    echo "==> anonymity: coalition-tap golden-digest determinism"
    cargo test -q --test differential coalition_tap_preserves_golden_trace_digest
    echo "==> anonymity: exp e13 quick sweep (gate: congos < direct"
    echo "    at coalition 10% on expander:4; asserted inside the binary)"
    # Scratch output path so the CI gate cannot clobber the committed
    # quick-sweep results/BENCH_anonymity.json (regenerate that by
    # running `exp e13` from the repo root; --full for the big rows).
    out=target/BENCH_anonymity_smoke.json
    cargo run --release -q -p congos-harness --bin exp -- e13 \
        --json "$out" >/dev/null
    for key in '"suite": "anonymity"' '"p_id%"' '"eps"' '"system"'; do
        grep -q "$key" "$out" || {
            echo "anonymity report $out is missing $key" >&2
            exit 1
        }
    done
    echo "    wrote $out (schema keys present, gate passed)"
}

case "$target" in
topo | mem | net | loadtest | anonymity)
    "run_$target"
    echo "==> ci: OK ($target)"
    exit 0
    ;;
tier1 | full) ;;
*)
    echo "unknown target $target (see the header of $0)" >&2
    exit 2
    ;;
esac

echo "==> tier1: cargo build --release"
cargo build --release

echo "==> tier1: cargo test -q (root package, incl. the differential suite)"
cargo test -q

echo "==> tier1: backend-equivalence suite in release, the profile the benchmark runs"
# The default backend fans heavy rounds out over worker threads, so every
# default run takes the parallel path; pin it bit-identical in the build
# profile the benchmark measures, not only in the test profile.
cargo test -q --release --test differential backend_equivalence

echo "==> tier1: unit tests and proptests of every library crate but congos-harness"
cargo test -q -p congos-sim -p congos-gossip -p congos -p congos-adversary -p congos-baselines

echo "==> tier1: E10 and E11, the tests that read simulator bytes, in release"
# Both run in about 1 s together on a 2-core host, after the harness lib's
# release test build.
cargo test -q --release -p congos-harness --lib -- --exact \
    experiments::e10_metadata_hiding::tests::e10_bytes_blow_up_more_than_messages \
    experiments::e11_communication::tests::e11_overhead_amortizes_with_rumor_size

echo "==> tier1: benchmark package builds and passes against this tree"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

run_topo
run_mem
run_net
run_loadtest
run_anonymity

if [ "$target" = "full" ]; then
    echo "==> full: cargo test -q --workspace"
    cargo test -q --workspace
fi

echo "==> ci: OK ($target)"
