#!/bin/sh
# Runs two full sets of the benchmark back to back (every workload, untraced
# and traced pass, each in its own process) and prints, per end-to-end metric
# and workload, both values, their relative difference and PASS / UNRESOLVED
# against the bound in BENCHMARK.json. Exact metrics must match to the digit.
#
#   benchmark/check_repeat.sh [--seed S] [--seconds T]
#
# Run from the repository root. Takes about seven minutes at the default
# --seconds 16.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
