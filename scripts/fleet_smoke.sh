#!/usr/bin/env bash
# Fleet smoke: the multi-process survival contract, end to end through
# the real binaries.
#
#   reference — replay scripts/fleet-workload-kill.jsonl (24 requests over
#               three scenes, about 6 s at the default speed) through one
#               in-process shard, dumping frames
#   fleet     — replay it again with --remote spawn:3 (three asdr-shardd
#               daemons on Unix sockets), kill -9 one daemon mid-run,
#               every process writing an asdr_obs run bundle
#   asserts   — no daemon runs more threads mid-replay than its workers
#               and connections account for, the fleet run completes,
#               every dumped frame is byte-identical to the reference,
#               the stats artifact
#               records the failure (>= 1 eviction), exactly the two
#               survivors finished their bundles (the victim's last
#               recorded stage proves the SIGKILL), and the merged
#               bundle report joins request spans across processes
#   hang      — replay it once more over three fresh daemons and SIGSTOP
#               one mid-run: it keeps its connections open and answers
#               nothing, so only the fleet's health eviction, which fails
#               over what the daemon held, lets the run finish; frames
#               byte-identical again, >= 1 eviction. The exit trap resumes
#               and ends the stopped daemon whatever happens.
#
# usage: scripts/fleet_smoke.sh
#
# Environment:
#   FLEET_SMOKE_SPEED   replay time warp (default 2)
#   FLEET_SMOKE_SCALE   render scale (default tiny)
set -euo pipefail

workload=scripts/fleet-workload-kill.jsonl
speed="${FLEET_SMOKE_SPEED:-2}"
scale="${FLEET_SMOKE_SCALE:-tiny}"
out=target/fleet-smoke
store=target/fleet-store

cluster() { cargo run --release -q -p asdr_cluster --bin asdr-cluster -- "$@"; }
report() { cargo run --release -q -p asdr_cluster --bin asdr-cluster -- report "$@"; }

rm -rf "$out" "$store"
mkdir -p "$out"

# the one process this script freezes, once it has; the trap only ever
# signals a pid this script took from the fresh daemons of its own replay
stopped=""
resume_stopped() {
    [[ -n "$stopped" ]] || return 0
    grep -qa 'asdr-shardd' "/proc/$stopped/cmdline" 2> /dev/null || return 0
    kill -CONT "$stopped" 2> /dev/null || true
    kill "$stopped" 2> /dev/null || true
    for _ in $(seq 1 100); do
        kill -0 "$stopped" 2> /dev/null || return 0
        sleep 0.1
    done
    kill -9 "$stopped" 2> /dev/null || true
}
trap resume_stopped EXIT

# Sets `fresh` to the three daemons the background replay `replay_pid`
# spawned, ignoring the `stale` ones that were running before it.
await_fresh_daemons() {
    fresh=""
    for _ in $(seq 1 600); do
        fresh=$(pgrep -f 'asdr-[s]hardd' | grep -Fxv "$stale" || true)
        [[ $(echo "$fresh" | grep -c .) -ge 3 ]] && return 0
        kill -0 "$replay_pid" 2> /dev/null || { echo "FAIL: replay died before spawning shards"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: three asdr-shardd daemons never appeared"
    exit 1
}

# The eviction count of the stats artifact `$1`.
evictions_in() {
    sed -n 's/.*"fleet": {"shards_lost": [0-9]*, "evictions": \([0-9]*\).*/\1/p' "$1"
}

echo "== build (spawn:N locates asdr-shardd next to asdr-cluster)"
cargo build --release -q -p asdr_cluster --bin asdr-cluster --bin asdr-shardd

echo "== reference replay (one in-process shard; fits warm the store)"
cluster --workload "$workload" --scale "$scale" --speed "$speed" \
    --shards 1 --store-dir "$store" --dump-images "$out/ref" \
    --out "$out/ref-stats.json" > "$out/ref.log"

echo "== fleet replay (spawn:3, killing one daemon mid-run)"
stale=$(pgrep -f 'asdr-[s]hardd' || true)
cluster --workload "$workload" --scale "$scale" --speed "$speed" \
    --remote spawn:3 --store-dir "$store" --dump-images "$out/fleet" \
    --bundle "$out/bundles" \
    --out "$out/fleet-stats.json" > "$out/fleet.log" 2> "$out/fleet.err" &
replay_pid=$!

# wait for all three fresh daemons (ignoring any stale ones from earlier
# runs), then SIGKILL one — no drain, no goodbye
await_fresh_daemons
sleep 1.5
# mid-replay, every daemon is its accept loop, its signal watcher, its
# workers and a reader and a writer per connection — plus a prewarm or the
# bundle's own, which the 4 allows. A thread per admitted request would grow
# past that under load.
workers=1     # asdr-cluster's --workers default, handed to each daemon
connections=2 # FleetConfig::connections_per_shard's default
max_threads=$((workers + 2 * connections + 4))
for pid in $fresh; do
    threads=$(sed -n 's/^Threads:[[:space:]]*//p' "/proc/$pid/status" 2> /dev/null || true)
    [[ -n "$threads" ]] || { echo "FAIL: shardd $pid exited before it could be sampled"; exit 1; }
    [[ "$threads" -le "$max_threads" ]] \
        || { echo "FAIL: shardd $pid runs $threads threads mid-replay (max $max_threads)"; exit 1; }
    echo "shardd pid $pid: $threads threads (max $max_threads)"
done
victim=$(echo "$fresh" | tail -1)
if kill -9 "$victim" 2> /dev/null; then
    echo "killed shardd pid $victim"
else
    echo "FAIL: shardd $victim exited before the kill — nothing was tested"
    exit 1
fi

wait "$replay_pid" || { echo "FAIL: fleet replay did not survive the kill"; cat "$out/fleet.err"; exit 1; }

# a SIGKILLed daemon cannot say goodbye: all three daemons opened a run
# bundle, but exactly the two survivors finished theirs (stats.json is
# written by the drain path) — the victim's bundle ends at "listening"
dirs=$(find "$out"/bundles -maxdepth 1 -name 'shard*' -type d | wc -l)
[[ "$dirs" -eq 3 ]] || { echo "FAIL: expected 3 shardd bundles, saw $dirs"; exit 1; }
exits=$(find "$out"/bundles/shard*/ -maxdepth 1 -name stats.json | wc -l)
[[ "$exits" -eq 2 ]] || { echo "FAIL: expected 2 survivor drains, saw $exits finished bundles"; exit 1; }
for d in "$out"/bundles/shard*/; do
    [[ -f "$d/stats.json" ]] && continue
    stage=$(cat "$d/last-stage")
    [[ "$stage" == "listening" ]] \
        || { echo "FAIL: victim bundle $d ends at '$stage', not 'listening'"; exit 1; }
    echo "victim bundle $d confirms the kill (last stage: $stage)"
done

echo "== asserts"
diff -r "$out/ref" "$out/fleet" \
    || { echo "FAIL: fleet frames differ from the single-process reference"; exit 1; }
echo "frames byte-identical: $(ls "$out/ref" | wc -l) files"

evictions=$(evictions_in "$out/fleet-stats.json")
[[ -n "$evictions" && "$evictions" -ge 1 ]] \
    || { echo "FAIL: stats artifact shows no eviction (got '${evictions:-none}')"; exit 1; }
echo "failure visible in stats: $evictions eviction(s)"
replications=$(sed -n 's/.*"rewarms": [0-9]*, "replications": \([0-9]*\)}.*/\1/p' \
    "$out/fleet-stats.json")
[[ -n "$replications" ]] \
    || { echo "FAIL: the fleet block carries no replications counter"; exit 1; }
echo "replicas made behind queued requests: $replications"

echo "== merged bundle report"
report --bundles "$out/bundles" --out target/fleet-bundle-report.md
joins=$(grep -c '^SPAN_JOIN' target/fleet-bundle-report.md || true)
[[ "$joins" -ge 1 ]] \
    || { echo "FAIL: no request's spans joined across processes"; exit 1; }
echo "cross-process span joins: $joins"

echo "== hang replay (spawn:3, SIGSTOP one daemon mid-run)"
stale=$(pgrep -f 'asdr-[s]hardd' || true)
cluster --workload "$workload" --scale "$scale" --speed "$speed" \
    --remote spawn:3 --store-dir "$store" --dump-images "$out/hang" \
    --out "$out/hang-stats.json" > "$out/hang.log" 2> "$out/hang.err" &
replay_pid=$!
await_fresh_daemons
sleep 1.5
victim=$(echo "$fresh" | tail -1)
kill -STOP "$victim" 2> /dev/null \
    || { echo "FAIL: shardd $victim exited before the stop — nothing was tested"; exit 1; }
stopped=$victim
echo "stopped shardd pid $victim"
wait "$replay_pid" \
    || { echo "FAIL: fleet replay did not get past the hung daemon"; cat "$out/hang.err"; exit 1; }
diff -r "$out/ref" "$out/hang" \
    || { echo "FAIL: frames served around the hung daemon differ from the reference"; exit 1; }
echo "frames byte-identical: $(ls "$out/hang" | wc -l) files"
evictions=$(evictions_in "$out/hang-stats.json")
[[ -n "$evictions" && "$evictions" -ge 1 ]] \
    || { echo "FAIL: the hung daemon was never evicted (got '${evictions:-none}')"; exit 1; }
echo "hung daemon evicted: $evictions eviction(s)"
echo "fleet smoke OK"
