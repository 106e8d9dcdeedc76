#!/usr/bin/env bash
# Tier-1 CI for the confidential-gossip workspace.
#
#   scripts/ci.sh            # tier1: rustfmt and clippy (warnings denied)
#                            #        + a grep gate: no file under
#                            #        crates/harness/src/experiments/ names
#                            #        `Engine::` (every experiment runs
#                            #        through harness::run_with_factory)
#                            #        + release build + the whole workspace
#                            #        test suite + in release: the
#                            #        differential suite's backend
#                            #        equivalence, the allocation budget
#                            #        (tests/alloc_budget.rs, the profile
#                            #        the benchmark measures), the
#                            #        construction budget
#                            #        (tests/build_budget.rs), gossip's
#                            #        tests, congos's
#                            #        class engine's and node's, and from
#                            #        the congos-harness lib the E10 and
#                            #        E11 tests, the only ones that read
#                            #        simulator bytes + rustdoc of every
#                            #        workspace crate with warnings denied
#                            #        (no dangling doc link) + the
#                            #        benchmark package (its pinned API
#                            #        surface) + every target below
#   scripts/ci.sh topo       # topology target only: topology-differential
#                            #        suite, topology proptests, and the
#                            #        `exp e14` quick smoke (writes
#                            #        target/BENCH_topology_smoke.json)
#   scripts/ci.sh mem        # memory target only: fragment-equality
#                            #        proptests, the congos soak test
#                            #        (release, ~3 s: 1024 rounds of churn
#                            #        and attacks, bounded state of every
#                            #        slot, crashed ones included) and the
#                            #        `exp e3m` small-n smoke sweep under a
#                            #        hard peak-RSS budget
#   scripts/ci.sh net        # network target only: TCP-vs-simulator
#                            #        loopback differential suite, the
#                            #        congos-net package tests (codec
#                            #        corruption proptests, rumor-table and
#                            #        transport tests; debug and release),
#                            #        the congos-node multi-process tests
#                            #        and, from the congos-harness lib, the
#                            #        `Cluster` unit tests and the TCP
#                            #        coalition-tap test (every cluster node
#                            #        runs the confidentiality auditor), and
#                            #        the `exp e15` quick load row (every
#                            #        pair on time; writes
#                            #        target/BENCH_net_loadtest_smoke.json
#                            #        and checks its suite, on_time, p50
#                            #        and p99 keys)
#   scripts/ci.sh anonymity  # source-anonymity target: predict-subsystem
#                            #        proptests, the tap golden-digest
#                            #        determinism test, and the `exp e13`
#                            #        quick sweep (asserts congos < direct
#                            #        at coalition 10% on expander:4)
#   scripts/ci.sh loc [REV]  # non-test Rust lines per crate and in total
#                            #        over crates/*/src, src/ and examples/
#                            #        (each file cut at the #[cfg(test)]
#                            #        that opens a `mod … {`); with REV,
#                            #        also that revision's count (through
#                            #        `git archive`) and the delta. Builds
#                            #        nothing; a bad REV exits 2
#
# The differential suite (part of the root package's tests) compares the
# engine backends pairwise from inside each test, so one pass covers them
# all; tier1 runs its backend-equivalence module once more in release.
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
    echo "==> mem: fragment-equality proptests"
    cargo test -q -p congos --test fragment_prop
    echo "==> mem: congos soak test (release)"
    cargo test -q --release -p congos --test soak -- --ignored
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
    echo "==> net: exp e15 quick load row (asserts every pair on time)"
    # Scratch output path so the smoke cannot clobber the committed
    # results/BENCH_net_loadtest.json (regenerate that by running
    # `exp e15` from the repo root).
    out=target/BENCH_net_loadtest_smoke.json
    cargo run --release -q -p congos-harness --bin exp -- e15 --json "$out" >/dev/null
    for key in '"suite": "net_loadtest"' '"on_time"' '"p50"' '"p99"'; do
        grep -q "$key" "$out" || {
            echo "load-test row set $out is missing $key" >&2
            exit 1
        }
    done
    echo "    wrote $out (schema keys present)"
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

# Prints "<unit> <lines>" per unit (a crate under crates/, `root` for src/,
# `examples`) for the tree rooted at $1, counting each .rs file up to the
# `#[cfg(test)]` (plus any attributes after it) that opens an inline `mod`.
count_loc() {
    (
        cd "$1"
        { find crates/*/src src examples -name '*.rs' 2>/dev/null || true; } | sort |
            while read -r f; do
                case $f in
                crates/*) unit=${f#crates/} && unit=${unit%%/*} ;;
                src/*) unit=root ;;
                *) unit=examples ;;
                esac
                awk -v unit="$unit" '
                    /^[[:space:]]*#\[cfg\(test\)\]/ { if (!held) held = NR; next }
                    held && /^[[:space:]]*#\[/ { next }
                    held && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[[:alnum:]_]+[[:space:]]*\{/ {
                        cut = held - 1; done = 1; exit
                    }
                    { held = 0 }
                    END { print unit, (done ? cut : NR) }' "$f"
            done
    ) | awk '{ s[$1] += $2 } END { for (u in s) print u, s[u] }' | sort
}

run_loc() {
    local rev=${1:-}
    if [ -z "$rev" ]; then
        count_loc . | awk '{ printf "%-12s %7d\n", $1, $2; t += $2 }
            END { printf "%-12s %7d\n", "total", t }'
        return
    fi
    git rev-parse -q --verify "$rev^{commit}" >/dev/null || {
        echo "loc: unknown revision $rev" >&2
        exit 2
    }
    loc_base=$(mktemp -d)
    trap 'rm -rf "$loc_base"' EXIT
    git archive "$rev" | tar -x -C "$loc_base"
    join -a1 -a2 -e0 -o0,1.2,2.2 <(count_loc "$loc_base") <(count_loc .) |
        awk -v rev="$rev" '
            BEGIN { printf "%-12s %7s %7s %7s\n", "unit", substr(rev, 1, 7), "tree", "delta" }
            { printf "%-12s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
            END { printf "%-12s %7d %7d %+7d\n", "total", a, b, b - a }'
}

case "$target" in
loc)
    run_loc "${2:-}"
    exit 0
    ;;
topo | mem | net | anonymity)
    "run_$target"
    echo "==> ci: OK ($target)"
    exit 0
    ;;
tier1) ;;
*)
    echo "unknown target $target (see the header of $0)" >&2
    exit 2
    ;;
esac

echo "==> tier1: rustfmt and clippy"
cargo fmt --all --check
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> tier1: experiments drive no engine of their own"
if grep -rn 'Engine::' crates/harness/src/experiments; then echo "experiments must run through harness::run_with_factory, not an Engine of their own" >&2; exit 1; fi

echo "==> tier1: cargo build --release"
cargo build --release

echo "==> tier1: the workspace test suite (every package's unit, integration and doc tests)"
cargo test -q --offline --workspace

echo "==> tier1: backend-equivalence suite in release, the profile the benchmark runs"
# The default backend fans heavy rounds out over worker threads, so every
# default run takes the parallel path; pin it bit-identical in the build
# profile the benchmark measures, not only in the test profile.
cargo test -q --release --test differential backend_equivalence

echo "==> tier1: allocation and construction budgets in release, the profile the benchmark measures"
# The workspace suite above runs them in the test profile; this run pins the
# profile whose `alloc_bytes_per_msg` and `setup_s` the benchmark reports.
cargo test -q --release --test alloc_budget
cargo test -q --release --test build_budget

echo "==> tier1: congos-gossip tests in release"
# The membership filter's `debug_assert!` is compiled out here, so the
# tests that feed an endpoint hostile pushes (a rumor whose origin is not a
# member) must see it drop them by its own checks.
cargo test -q --release -p congos-gossip

echo "==> tier1: congos class-engine and node tests in release"
# Likewise for the class engine and the node: their rejection counts, the
# node's hostile-input tests and the confirmation rule's reference test must
# hold where `debug_assert!`s are compiled out.
cargo test -q --release -p congos --lib services::class_engine
cargo test -q --release -p congos --lib node::

echo "==> tier1: E10 and E11, the tests that read simulator bytes, in release"
# Both run in about 1 s together on a 2-core host, after the harness lib's
# release test build.
cargo test -q --release -p congos-harness --lib -- --exact \
    experiments::e10_metadata_hiding::tests::e10_bytes_blow_up_more_than_messages \
    experiments::e11_communication::tests::e11_overhead_amortizes_with_rumor_size

echo "==> tier1: rustdoc with warnings denied"
# A deleted or renamed item must not leave a dangling or ambiguous doc link
# behind. The vendored rand and proptest stubs are not ours to document.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --exclude proptest --exclude rand --no-deps

echo "==> tier1: benchmark package builds and passes against this tree"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

run_topo
run_mem
run_net
run_anonymity

echo "==> ci: OK ($target)"
