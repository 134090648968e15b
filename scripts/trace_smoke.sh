#!/usr/bin/env bash
# Trace smoke: the record -> replay contract, end to end through the real
# binaries.
#
#   record — the bundled workload through asdr-serve with --record,
#            dumping its frames
#   replay — the captured workload file through asdr-serve against the
#            same store, dumping its frames
#
# and asserts the two frame dumps are byte-identical and both TRACE_RESULT
# lines count the same requests (the capture holds every one).
#
# usage: scripts/trace_smoke.sh
set -euo pipefail

out=target/trace-smoke
store=target/trace-store

serve() { cargo run --release -q -p asdr_serve --bin asdr-serve -- "$@"; }

rm -rf "$out" "$store"
mkdir -p "$out"

run() { # label, then the input flags
    local label=$1
    shift
    serve "$@" --scale tiny --store-dir "$store" --dump-images "$out/$label" \
        --out "$out/$label-stats.json" > "$out/$label.log"
    sed -n 's/^TRACE_RESULT //p' "$out/$label.log" > "$out/$label.json"
    [[ -s "$out/$label.json" ]] || { echo "error: no TRACE_RESULT line in $out/$label.log" >&2; exit 1; }
}

echo "== record (the bundled workload, capturing a workload file)"
run jsonl --workload scripts/serve-workload-tiny.jsonl --record "$out/captured.jsonl"
[[ -s "$out/captured.jsonl" ]] || { echo "FAIL: --record wrote no workload file"; exit 1; }

echo "== replay (the capture)"
run trace --workload "$out/captured.jsonl"

echo "== asserts"
diff -r "$out/jsonl" "$out/trace" \
    || { echo "FAIL: the capture rendered different frames"; exit 1; }
echo "frames byte-identical: $(ls "$out/jsonl" | wc -l) files"
requests() { sed -n 's/.*"requests": \([0-9]*\).*/\1/p' "$1"; }
[[ "$(requests "$out/jsonl.json")" == "$(requests "$out/trace.json")" ]] \
    || { echo "FAIL: the capture does not hold every request"; exit 1; }
echo "requests replayed: $(requests "$out/trace.json")"
echo "trace smoke OK"
