#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh                              all five workloads, untraced then traced
#   benchmark/run.sh --workload bfs-100k --seed 7 one workload, both runs
#   benchmark/run.sh --smoke                      tiny inputs, a few seconds in all
#   benchmark/run.sh --set a.json [--runs 10]     a set of untraced runs for benchmark/compare
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run, result object on the last line
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR if
# set, else to target/benchmark; span files and summary.json go there too.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-target/benchmark}"
# The build's chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" --bin spbench 1>&2
exec "$target/release/spbench" --out-dir "$target" "$@"
