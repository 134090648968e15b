#!/usr/bin/env bash
# Observability smoke: the run-bundle and merged-report contract through
# the real binaries.
#
#   replay   — replay scripts/serve-workload-miss.jsonl, a burst whose
#              1 ms deadlines no request can meet (65 536 pixels each), through
#              asdr-cluster --shards 1, writing a run bundle
#   asserts  — the bundle holds the full artifact set with the span
#              timeline and no file the layout doc in
#              crates/obs/src/bundle.rs does not list, its stats.json is byte-identical to the --out
#              artifact (one JSON writer serves both), and the merged
#              `asdr-cluster report --bundles` attributes every request's
#              deadline miss, one line each, to a dominant phase
#
# usage: scripts/obs_smoke.sh
set -euo pipefail

out=target/obs-smoke

cluster() { cargo run --release -q -p asdr_cluster --bin asdr-cluster -- "$@"; }

rm -rf "$out"
mkdir -p "$out"

echo "== build"
cargo build --release -q -p asdr_cluster --bin asdr-cluster

echo "== one-shard replay, bundle on"
cluster --workload scripts/serve-workload-miss.jsonl --shards 1 --scale tiny \
    --bundle "$out/bundles" --out "$out/replay-stats.json" > "$out/replay.log"

echo "== bundle asserts"
bundle="$out/bundles/cluster"
for f in config.json meta.json spans.jsonl stats.json stats-timeline.jsonl last-stage; do
    [[ -s "$bundle/$f" || "$f" == "stats-timeline.jsonl" && -f "$bundle/$f" ]] \
        || { echo "FAIL: bundle is missing $f"; exit 1; }
done
# the layout doc's `//! <dir>/NAME` lines are the whole artifact set
documented=$(sed -n 's|^//! <dir>/\([^ ]*\) .*|\1|p' crates/obs/src/bundle.rs)
[[ -n "$documented" ]] || { echo "FAIL: no layout lines in crates/obs/src/bundle.rs"; exit 1; }
for f in "$bundle"/*; do
    grep -qxF "$(basename "$f")" <<< "$documented" \
        || { echo "FAIL: bundle holds $(basename "$f"), which the bundle.rs layout does not list"; exit 1; }
done
stage=$(cat "$bundle/last-stage")
[[ "$stage" == "exit" ]] \
    || { echo "FAIL: bundle ends at stage '$stage', not the clean-exit marker"; exit 1; }
grep -Eq '"mlp_kernel": "(avx512vnni|avx2|portable)"' "$bundle/config.json" \
    || { echo "FAIL: config.json does not name the MLP kernel that ran"; exit 1; }
diff "$bundle/stats.json" "$out/replay-stats.json" \
    || { echo "FAIL: bundle stats.json differs from the --out artifact"; exit 1; }
spans=$(wc -l < "$bundle/spans.jsonl")
echo "bundle complete: $spans span lines, final stage '$stage', stats byte-identical to --out"

echo "== merged report asserts"
cluster report --bundles "$out/bundles" --out "$out/report.md"
grep -q '^| render |' "$out/report.md" \
    || { echo "FAIL: per-phase table has no render row"; exit 1; }
misses=$(grep -c '^MISS_ATTRIBUTION' "$out/report.md" || true)
requests=$(grep -c '^{' scripts/serve-workload-miss.jsonl)
[[ "$misses" -eq "$requests" ]] \
    || { echo "FAIL: $requests unmeetable deadlines produced $misses MISS_ATTRIBUTION lines"; exit 1; }
if grep '^MISS_ATTRIBUTION' "$out/report.md" | grep -q 'phase=unattributed'; then
    echo "FAIL: a deadline miss has no dominant phase"
    exit 1
fi
cluster report --bundles "$out/bundles" --json --out "$out/report.json"
grep -q '"phases"' "$out/report.json" \
    || { echo "FAIL: JSON report has no phases array"; exit 1; }
echo "merged report: $misses deadline misses, every one attributed"
cat "$out/report.md"
echo "obs smoke OK"
