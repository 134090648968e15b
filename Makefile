# The one task runner: every CI and nightly step that builds, tests or
# smokes runs one of these recipes (.github/workflows/), so a recipe is
# edited here and nowhere else.

.PHONY: verify test-crates test-release fmt fmt-check clippy doc check-extras examples bench-build bench-smoke bench-check cluster-smoke trace-smoke fleet-smoke obs-smoke ci

# Tier-1 gate: what must stay green on every commit.
verify:
	cargo build --release
	cargo test -q

# The layer crates' own suites (tier-1 covers only the root package).
# --no-fail-fast: cargo otherwise stops at the first failing package and
# hides every suite after it.
test-crates:
	cargo test --workspace --exclude asdr -q --no-fail-fast

# Bit-identity of the kernels on the code generation the benchmark measures:
# tier-1 runs these at the dev profile's opt-level 2, release is opt-level 3.
# The props run the MLP, encoder and occupancy-pass oracles once per kernel
# instantiation the CPU offers;
# fit_workers holds the fit's checkpoint bytes on 2, 3 and 5 workers to one
# worker's; the asdr_core pair and the renderer unit tests (the
# occupancy-pattern sweep) hold the march to its kept scalar reference; the
# engine unit tests hold every policy x worker count to one frame, probe
# pixels read back included; asdr_nerf's unit tests hold the MLP rows to their
# 64-byte alignment and the checkpoint to its size. The cluster suites run the
# wire's reader and writer threads and the fleet's race at the opt-level the
# benchmark ships them at. asdr_math's unit tests run the helper pool, whose
# `unsafe` lends a job on the caller's stack to parked threads, at opt-level 3.
test-release:
	cargo test --release --test kernel_identity
	cargo test --release -p asdr_nerf --test props --test fit_workers
	cargo test --release -p asdr_nerf --lib
	cargo test --release -p asdr_core --test empty_space --test props
	cargo test --release -p asdr_core --lib renderer
	cargo test --release -p asdr_core --lib engine
	cargo test --release -p asdr_cluster --lib --test fleet_seam --test wire_props
	cargo test --release -p asdr_math --lib

fmt:
	cargo fmt --all

fmt-check:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings as errors: a deleted item's doc links fail the PR
# that deletes it.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Compile-check everything that is not exercised by `cargo test`, so benches
# and examples can never silently rot.
check-extras:
	cargo build --workspace --benches --examples

# Run the examples CI's extras job runs (quickstart is the slow one, ~40 s).
examples:
	cargo run --release --example quickstart
	cargo run --release --example scene_zoo
	cargo run --release --example render_service
	cargo run --release --example render_cluster

# Compile the stand-alone benchmark package (its own workspace, which no
# other recipe builds) with the build line of benchmark/run.sh, so a changed
# asdr_core signature fails here and not in the acceptance run.
bench-build:
	CARGO_TARGET_DIR=target/bench-build cargo build --release --offline \
		--manifest-path benchmark/Cargo.toml \
		-p asdr_benchmark -p asdr_cluster --bin asdr-benchmark --bin asdr-shardd

# A fast taste of the wall-clock benchmarks.
bench-smoke:
	cargo bench -p asdr_bench --bench adaptive --bench regcache

# Full benches + regression check against the committed baseline. Starts
# from a clean dump so stale entries from earlier runs can't mask anything,
# and it is the full suite (kernels only: about a minute), so a baseline
# row missing from the dump fails here as it does in the nightly job.
bench-check:
	rm -f target/bench-results.json
	cargo bench -p asdr_bench
	BENCH_REQUIRE_ALL=1 scripts/bench_check.sh

# Replay the bundled clustered workload over 2 shards sharing one store
# dir, cold then warm, pinning zero duplicate fits and every request served
# warm, then a hot scene that must spill to its replica with frames equal to
# one shard's — once over in-process shards and once over spawned asdr-shardd
# daemons, one flag apart (what the nightly cluster-smoke job runs).
cluster-smoke:
	scripts/cluster_smoke.sh --shards 2
	scripts/cluster_smoke.sh --remote spawn:2

# Replay the bundled tiny workload with --record, replay the captured
# workload file, and assert the two frame dumps are byte-identical (what the
# nightly trace-smoke job runs).
trace-smoke:
	scripts/trace_smoke.sh

# Replay scripts/fleet-workload-kill.jsonl against three asdr-shardd
# processes, kill -9 one mid-run, and assert completion with byte-identical frames and the
# eviction visible in stats (what the nightly fleet-smoke job runs).
fleet-smoke:
	scripts/fleet_smoke.sh

# Replay a deadline-missing burst with a run bundle on and assert the
# bundle artifact set plus the merged `asdr-cluster report --bundles`
# attribution (what the nightly obs-smoke job runs).
obs-smoke:
	scripts/obs_smoke.sh

# Everything CI runs, in one shot.
ci: fmt-check clippy doc verify test-crates test-release check-extras examples bench-build
