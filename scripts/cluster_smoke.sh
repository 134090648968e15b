#!/usr/bin/env bash
# Cluster smoke: the bundled clustered workload over two shards sharing one
# store dir, cold then warm, pinning zero duplicate fits. The workload holds
# 3 scenes: "total_fits": 3 across both shards cold is fit dedup, 0 warm is
# the checkpoints being shared. A replica the fleet makes while its home is
# still fitting waits on the store's cross-process lock and loads: a disk
# hit, never a fourth fit. Then a hot scene (cluster-workload-spill.jsonl)
# over the warm store: requests overlap at its home, the fleet replicates
# and spills, and the frames are a one-shard run's, byte for byte.
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
    local workload=$1
    shift
    cargo run --release -q -p asdr_cluster --bin asdr-cluster -- \
        --workload "scripts/cluster-workload-$workload.jsonl" --scale tiny "$@" --store-dir "$store"
}

# a restored build cache may carry a previous run's store: cold means cold
rm -rf "$store"
cluster tiny "$@" --out target/cluster-stats-cold.json
grep '"total_fits": 3' target/cluster-stats-cold.json
cluster tiny "$@" --out target/cluster-stats.json
grep '"total_fits": 0' target/cluster-stats.json

rm -rf target/cluster-spill target/cluster-spill-ref
cluster spill --shards 1 --dump-images target/cluster-spill-ref --out target/cluster-stats-spill-ref.json
cluster spill "$@" --dump-images target/cluster-spill --out target/cluster-stats-spill.json
grep '"spilled": [1-9]' target/cluster-stats-spill.json
grep '"total_fits": 0' target/cluster-stats-spill.json
diff -r target/cluster-spill-ref target/cluster-spill
echo "cluster smoke OK ($*)"
