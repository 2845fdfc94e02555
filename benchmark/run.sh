#!/usr/bin/env bash
# The benchmark's one command. Builds the `minigiraffe` release binary and
# the harness from source, then runs the harness:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON result
#   benchmark/run.sh [--seed N] [--seconds S]
#       all five workloads, end to end and traced, every metric with its unit
#   benchmark/run.sh --quick      1/20 of the reads, one pass: a smoke test
#   benchmark/run.sh --aa         two full sets of the same build, compared
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for both builds, kept apart from the root `target/`
# so a benchmark build never invalidates or reuses a developer's artefacts.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --bin minigiraffe 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

export MG_BENCH_MINIGIRAFFE="$target/release/minigiraffe"
export MG_BENCH_OUT="$here/out"
exec "$target/release/mg-benchmark" "$@"
