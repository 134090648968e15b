#!/usr/bin/env bash
# Compares a bench-results JSON dump (written by the criterion shim via
# `cargo bench`) against the committed baseline and fails on regressions.
#
# usage: scripts/bench_check.sh [current.json] [baseline.json]
#
# Environment:
#   BENCH_TOLERANCE      max allowed mean_ns ratio current/baseline (default
#                        2.0 — wall-clock benches on shared CI runners are
#                        noisy; this catches order-of-magnitude regressions,
#                        not 10%).
#   BENCH_REQUIRE_ALL    set to 1 to FAIL on baseline benches absent from
#                        the current dump. Default: missing entries WARN
#                        only, so a partial run (`--bench adaptive`) or an
#                        older branch whose tree predates a newer baseline
#                        entry still smokes clean. The nightly workflow runs
#                        the full suite from a clean dump and sets this, so
#                        a bench that silently vanishes still fails where it
#                        matters.
set -euo pipefail

current="${1:-target/bench-results.json}"
baseline="${2:-scripts/bench-baseline.json}"
tolerance="${BENCH_TOLERANCE:-2.0}"

if [[ ! -f "$current" ]]; then
    echo "error: no current results at $current (run \`cargo bench -p asdr_bench\` first)" >&2
    exit 2
fi
if [[ ! -f "$baseline" ]]; then
    echo "error: no baseline at $baseline" >&2
    exit 2
fi

# extract "name mean_ns" pairs from the shim's one-entry-per-line dump
extract() {
    sed -n 's/.*"name":"\([^"]*\)","mean_ns":\([0-9.]*\).*/\1 \2/p' "$1"
}

extract "$baseline" > /tmp/bench_base.$$
extract "$current" > /tmp/bench_cur.$$
trap 'rm -f /tmp/bench_base.$$ /tmp/bench_cur.$$ /tmp/bench_ratio.$$' EXIT

# Whether the CPU reports every one of the flags given (cpuinfo spelling).
cpu_has() {
    local flags
    flags=$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null) || return 1
    for f in "$@"; do
        [[ " $flags " == *" $f "* ]] || return 1
    done
}

# The MLP body the dispatched (`_raw`) rows run: the one `Kernel::available`
# picks, VNNI where the CPU reports avx2, avx512f and avx512vnni, else AVX2,
# else portable. The baseline's `_raw` rows were recorded on a VNNI host, so
# elsewhere each is held to the baseline row of the body that runs: a
# `_forward_raw` row to its `_forward_avx2` / `_forward_portable` row, a
# `_pair_raw` row (two inputs) to twice that.
if cpu_has avx2 avx512f avx512_vnni; then
    mlp_body=raw
elif cpu_has avx2; then
    mlp_body=avx2
else
    mlp_body=portable
fi

fail=0
missing=0
: > /tmp/bench_ratio.$$
while read -r name base_mean; do
    cur_mean=$(awk -v n="$name" '$1 == n { print $2 }' /tmp/bench_cur.$$)
    if [[ -z "$cur_mean" ]]; then
        echo "WARN  $name: in baseline but not in current results"
        missing=$((missing + 1))
        continue
    fi
    held=""
    if [[ "$name" == *_mlp_*_raw && "$mlp_body" != raw ]]; then
        row="${name/_pair_raw/_forward_raw}"
        row="${row%_raw}_$mlp_body"
        base_mean=$(awk -v n="$row" '$1 == n { print $2 }' /tmp/bench_base.$$)
        if [[ -z "$base_mean" ]]; then
            echo "FAIL  $name: no baseline row $row for the $mlp_body body that runs here"
            fail=$((fail + 1))
            continue
        fi
        held=" of $row"
        if [[ "$name" == *_pair_raw ]]; then
            base_mean=$(awk -v b="$base_mean" 'BEGIN { printf "%.2f", 2 * b }')
            held=" of 2x $row"
        fi
    fi
    ratio=$(awk -v c="$cur_mean" -v b="$base_mean" 'BEGIN { printf "%.3f", c / b }')
    echo "$name $ratio" >> /tmp/bench_ratio.$$
    over=$(awk -v r="$ratio" -v t="$tolerance" 'BEGIN { print (r > t) ? 1 : 0 }')
    if [[ "$over" == "1" ]]; then
        echo "FAIL  $name: ${cur_mean}ns vs baseline ${base_mean}ns${held} (${ratio}x > ${tolerance}x)"
        fail=$((fail + 1))
    else
        echo "ok    $name: ${cur_mean}ns vs ${base_mean}ns${held} (${ratio}x)"
    fi
done < /tmp/bench_base.$$

# Within the current run: each `_pair_` row (two inputs through one MLP
# body) against its `_forward_` row (one input through the same MLP), so a
# pair body that stops interleaving fails on any host speed, which the 2x
# gate against the baseline cannot see. Five runs of `cargo bench --bench
# mlp` on a VNNI host read 1.24-1.50x (density) and 1.31-1.61x (colour); a
# pair that makes two one-input calls read 2.22x / 2.31x there. Held only
# where the MLP runs its VNNI body, which `Kernel::available` picks when the
# CPU reports avx2, avx512f and avx512vnni (`avx512_vnni` in cpuinfo): the
# bound was set from that body alone.
pair_bound=1.8
if [[ "$mlp_body" == raw ]]; then
    while read -r name pair_mean; do
        single="${name/_pair_/_forward_}"
        single_mean=$(awk -v n="$single" '$1 == n { print $2 }' /tmp/bench_cur.$$)
        if [[ -z "$single_mean" ]]; then
            echo "FAIL  $name: no $single in the same run to hold it to"
            fail=$((fail + 1))
            continue
        fi
        ratio=$(awk -v p="$pair_mean" -v s="$single_mean" 'BEGIN { printf "%.3f", p / s }')
        over=$(awk -v r="$ratio" -v t="$pair_bound" 'BEGIN { print (r > t) ? 1 : 0 }')
        if [[ "$over" == "1" ]]; then
            echo "FAIL  $name: ${ratio}x $single in the same run (> ${pair_bound}x): the pair no longer interleaves"
            fail=$((fail + 1))
        else
            echo "ok    $name: ${ratio}x $single in the same run (bound ${pair_bound}x)"
        fi
    done < <(awk '$1 ~ /_pair_/' /tmp/bench_cur.$$)
else
    echo "SKIPPED pair bound: the MLP runs no VNNI body here (cpuinfo lacks avx2, avx512f or avx512_vnni)"
fi

new=$(awk 'NR == FNR { seen[$1]; next } !($1 in seen) { print $1 }' /tmp/bench_base.$$ /tmp/bench_cur.$$)
for name in $new; do
    echo "NEW   $name: not in baseline (add it by refreshing scripts/bench-baseline.json)"
done

# Per-bench delta summary: mean drift plus the extremes, so a glance at the
# last lines shows *where* the time went, not just pass/fail.
summary=$(awk '
    { ratio[$1] = $2; n += 1; sum += $2 }
    END {
        if (n == 0) { print "no benches compared"; exit }
        worst = ""; best = ""
        for (name in ratio) {
            if (worst == "" || ratio[name] > ratio[worst]) worst = name
            if (best == "" || ratio[name] < ratio[best]) best = name
        }
        printf "mean %+.1f%%, worst %+.1f%% (%s), best %+.1f%% (%s)",
            (sum / n - 1) * 100, (ratio[worst] - 1) * 100, worst,
            (ratio[best] - 1) * 100, best
    }' /tmp/bench_ratio.$$)

echo
if [[ $fail -gt 0 ]]; then
    echo "$fail benchmark(s) regressed past ${tolerance}x or their pair bound — $summary"
    exit 1
fi
if [[ $missing -gt 0 && "${BENCH_REQUIRE_ALL:-0}" == "1" ]]; then
    echo "$missing baseline benchmark(s) missing from $current — the full suite must dump every baseline entry (BENCH_REQUIRE_ALL=1)"
    exit 1
fi
echo "all benchmarks within ${tolerance}x of baseline ($missing missing) — $summary"
