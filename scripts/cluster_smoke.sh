#!/usr/bin/env bash
# Cluster smoke: the bundled clustered workload over two shards sharing one
# store dir, cold then warm, pinning zero duplicate fits. The workload holds
# 3 scenes: "total_fits": 3 across both shards cold is fit dedup, 0 warm is
# the checkpoints being shared.
#
# usage: scripts/cluster_smoke.sh (--shards 2 | --remote spawn:2)
#
# The argument picks the shards (threads in this process, or asdr-shardd
# daemons on Unix sockets); everything else is the same run.
set -euo pipefail
[[ $# -eq 2 ]] || { echo "usage: $0 (--shards N | --remote SPEC)"; exit 2; }
store=target/cluster-store

# spawn:N locates asdr-shardd next to asdr-cluster
cargo build --release -q -p asdr_cluster --bin asdr-cluster --bin asdr-shardd
cluster() {
    cargo run --release -q -p asdr_cluster --bin asdr-cluster -- \
        --workload scripts/cluster-workload-tiny.jsonl --scale tiny "$@" --store-dir "$store"
}

# a restored build cache may carry a previous run's store: cold means cold
rm -rf "$store"
cluster "$@" --out target/cluster-stats-cold.json
grep '"total_fits": 3' target/cluster-stats-cold.json
cluster "$@" --out target/cluster-stats.json
grep '"total_fits": 0' target/cluster-stats.json
echo "cluster smoke OK ($*)"
