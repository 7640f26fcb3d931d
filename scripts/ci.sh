#!/usr/bin/env bash
# Local CI gate: everything the repo requires before a merge.
# Usage: scripts/ci.sh   (run from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Feature matrix: the trace feature must compile out cleanly everywhere
# (metrics stay, events vanish), and the telemetry crate's own tests must
# pass in both configurations.
echo "==> cargo build --workspace --no-default-features (trace compiled out)"
cargo build --workspace --no-default-features

echo "==> cargo test -q -p sciera-telemetry --no-default-features"
cargo test -q -p sciera-telemetry --no-default-features

# Scale-observatory matrix: the `profile` feature (off by default) must
# build through the facade's forwarding chain, and the telemetry crate's
# tests must pass with the profiler compiled in. (`--workspace` would
# fail here: member crates without a `profile` feature reject the flag,
# so the facade package drives the forwarding.)
echo "==> cargo build --features profile (profiler compiled in)"
cargo build --features profile

echo "==> cargo test -q -p sciera-telemetry --features profile"
cargo test -q -p sciera-telemetry --features profile

# The profiler attribution proptest must hold in all three configs: the
# default run is part of `cargo test -q` above.
echo "==> cargo test -q --test prop_profiler --features profile"
cargo test -q --test prop_profiler --features profile

echo "==> cargo test -q --test prop_profiler --no-default-features"
cargo test -q --test prop_profiler --no-default-features

# The differential fast-path proptest must hold in both feature configs.
echo "==> cargo test -q --test prop_fastpath --no-default-features"
cargo test -q --test prop_fastpath --no-default-features

# Same for the path-database proptests: the default-features run is part
# of `cargo test -q` above.
echo "==> cargo test -q --test prop_pathdb --no-default-features"
cargo test -q --test prop_pathdb --no-default-features

# And for the batched-pipeline differential proptest: the batch engine
# must match the sequential engine with tracing compiled out too.
echo "==> cargo test -q --test prop_batch --no-default-features"
cargo test -q --test prop_batch --no-default-features

# Delta-propagation differential proptest: the dirty-slot walk must reach
# the exhaustive walk's state (segments, retained slots, rounds) in both
# feature configs. The default-features run is part of `cargo test -q`
# above.
echo "==> cargo test -q --test prop_propagate --no-default-features"
cargo test -q --test prop_propagate --no-default-features

# The path-dynamics dataset exporter proptest (JSONL round-trip, epoch
# monotonicity, churn/board 1:1, seeded byte-replay) must hold in both
# feature configs.
echo "==> cargo test -q --test prop_dynamics --no-default-features"
cargo test -q --test prop_dynamics --no-default-features

# Benchmarks must at least compile; the A/B harness is run manually.
echo "==> cargo bench --no-run"
cargo bench --no-run

# Profiler-off overhead guard: the disabled scale-observatory plumbing
# (no-op ProfScope on the router batch path) must stay within measurement
# noise of the raw path.
echo "==> cargo bench -p sciera-bench --bench profiler_overhead"
cargo bench -p sciera-bench --bench profiler_overhead

# Bounded smoke sweep: N=100 and N=1000 through the full scale pipeline
# (synthesis -> beaconing -> path database -> router load -> sim stage)
# with the profiler engaged, written to target/ so it never clobbers the
# committed BENCH_scale.json.
echo "==> scale_sweep smoke (N=100,1000; profile)"
# Absolute output path: cargo runs the bench binary from crates/bench.
SCIERA_SCALE_NS=100,1000 SCIERA_SCALE_OUT="$PWD/target/scale_smoke.json" \
    cargo bench -p sciera-bench --bench scale_sweep --features profile
test -s target/scale_smoke.json
# The forwarding stage's per-operation cost must not grow with the
# topology: it did (420 ns at N=100, 1 942 ns at N=1000) while every
# forwarded frame scanned the link list for its `(ia, ifid)`.
# (`echo` ends the line: `read` fails on input that stops without one.)
read -r ns_100 ns_1000 < <(grep -o '"router_ns_per_op": [0-9]*' target/scale_smoke.json |
    awk '{print $2}' | tr '\n' ' '; echo)
if [ "$((ns_1000 * 2))" -gt "$((ns_100 * 3))" ]; then
    echo "scale smoke: router_ns_per_op $ns_100 ns at N=100 but $ns_1000 ns at N=1000 (limit 1.5x)" >&2
    exit 1
fi

# The path database keeps answers, not the candidates they were picked
# from: while it retained every raw candidate of every cached pair it held
# 9.4x the store's bytes at N=1000.
read -r store_bytes pathdb_bytes < <(grep -o '"store_bytes": [0-9]*, "pathdb_bytes": [0-9]*' \
    target/scale_smoke.json | tail -n 1 | tr -dc '0-9 '; echo)
if [ "$pathdb_bytes" -gt "$((store_bytes * 6))" ]; then
    echo "scale smoke: pathdb_bytes $pathdb_bytes exceeds 6x store_bytes $store_bytes at N=1000" >&2
    exit 1
fi

# Dynamics-campaign smoke: a short seeded campaign over a 40-AS synthetic
# deployment. The bench itself asserts schema validity and byte-for-byte
# seeded replay; outputs go to target/ so the committed
# BENCH_dynamics.json (full 200-epoch run) is never clobbered.
echo "==> dynamics_campaign smoke (24 epochs, 40 ASes)"
SCIERA_DYN_EPOCHS=24 SCIERA_DYN_ASES=40 SCIERA_DYN_PAIRS=3 \
    SCIERA_DYN_OUT="$PWD/target/dynamics_smoke" \
    SCIERA_DYN_BENCH_OUT="$PWD/target/dynamics_smoke/bench.json" \
    cargo bench -p sciera-bench --bench dynamics_campaign
test -s target/dynamics_smoke/paths.jsonl
test -s target/dynamics_smoke/events.jsonl
test -s target/dynamics_smoke/bench.json

# The benchmark package is frozen against the product's public surface
# (BENCHMARK.json `paths`): build it, run every workload briefly with its
# output checks on, and run its own tests, so drift shows here first.
echo "==> benchmark/run.sh --smoke"
benchmark/run.sh --smoke >/dev/null

echo "==> (cd benchmark && cargo test --offline)"
(cd benchmark && cargo test -q --offline --target-dir ../target)

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# The dataplane and wire-format crates carry the forwarding hot path, the
# control crate the combination/beaconing hot path, netsim the frame
# pool + dispatch loop under the batched pipeline, and topology the
# synthetic-generator inner loops the scale sweep leans on, pan every
# host's connect and send, core every lookup and every walk, the daemon and
# the orchestrator the lookups and probe rounds of a failover, and measure
# the campaigns that drive them all: hold them to the allocation-hygiene
# lints as hard errors.
echo "==> cargo clippy, hot-path lints (dataplane proto control netsim topology pan core daemon orchestrator measure)"
cargo clippy -p scion-dataplane -p scion-proto -p scion-control -p netsim -p sciera-topology -p scion-pan \
    -p sciera-core -p scion-daemon -p scion-orchestrator -p sciera-measure -- \
    -D warnings -D clippy::redundant_clone -D clippy::needless_collect

# One delivering hop loop, one router table: the packet-level walk stays
# deleted, and a map of routers searched per hop exists only where the
# tests keep the old loop as their reference.
echo "==> one hop loop, one router table (core)"
if grep -rn 'fn walk_packets' crates; then
    echo "ci: a second delivering walk is back" >&2
    exit 1
fi
awk 'FNR == 1 { in_tests = 0 }
     /#\[cfg\(test\)\]/ { in_tests = 1 }
     /BTreeMap<IsdAsn, BorderRouter>/ && !in_tests { print FILENAME ":" FNR ": " $0; found = 1 }
     END { exit found }' crates/core/src/*.rs || {
    echo "ci: routers are searched for by AS outside the tests" >&2
    exit 1
}

echo "==> ci OK"
