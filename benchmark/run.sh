#!/usr/bin/env bash
# Builds the benchmark and the daemon it spawns, then runs one workload:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR,
# or benchmark/target when that is unset.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
# one offline build of both binaries: asdr-shardd belongs to asdr_cluster,
# a path dependency, and cargo builds a dependency's binaries only on request
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" \
    -p asdr_benchmark -p asdr_cluster --bin asdr-benchmark --bin asdr-shardd >&2
exec "$target/release/asdr-benchmark" run "$@"
