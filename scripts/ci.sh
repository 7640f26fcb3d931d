#!/usr/bin/env bash
# Local CI gate: everything the repo requires before a merge, beyond the
# tier-1 command `cargo build --release && cargo test -q`. The root
# manifest's `default-members` is every package, so tier-1 already runs the
# facade's integration tests and each crate's unit tests; this script does
# not run them again.
# Usage: scripts/ci.sh   (run from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Scale-observatory matrix: the facade's `profile` feature (off by default)
# turns on `sciera-telemetry/profile`, and so every profiler scope in the
# build; the telemetry crate's tests must pass with the profiler compiled
# in. (`--workspace` would fail here: member crates without a `profile`
# feature reject the flag.)
echo "==> cargo build --features profile (profiler compiled in)"
cargo build --features profile

echo "==> cargo test -q -p sciera-telemetry --features profile"
cargo test -q -p sciera-telemetry --features profile

# The profiler attribution proptest must hold with the profiler compiled
# in: the run without it is part of tier-1's `cargo test -q`.
echo "==> cargo test -q --test prop_profiler --features profile"
cargo test -q --test prop_profiler --features profile

# Benchmarks must at least compile; the A/B harness is run manually.
echo "==> cargo bench --no-run"
cargo bench --no-run

# Profiler-off overhead guard: the disabled scale-observatory plumbing
# (no-op ProfScope on the router batch path) must stay within measurement
# noise of the raw path.
echo "==> cargo bench -p sciera-bench --bench profiler_overhead"
cargo bench -p sciera-bench --bench profiler_overhead

# Bounded smoke sweep: N=100 and N=1000 through the full scale pipeline
# (synthesis -> beaconing -> path database -> router load)
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

# Beaconing checks each PCB entry once, on receipt: while every
# verified-cache miss re-verified a whole chain, `beacon.verify` was the
# top profiled scope at N=1000.
bottleneck=$(grep -o '"bottleneck": "[^"]*"' target/scale_smoke.json | tail -n 1 | cut -d'"' -f4)
if [ "$bottleneck" = "beacon.verify" ]; then
    echo "scale smoke: beacon.verify is the bottleneck at N=1000" >&2
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

# The docs build without a warning: no link to a private or missing item,
# no redundant link target (the 13th cargo invocation of this script).
echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The dataplane and wire-format crates carry the forwarding hot path
# (dataplane also the frame pool under the batched pipeline), the control
# crate the combination/beaconing hot path, and topology the
# synthetic-generator inner loops the scale sweep leans on, pan every
# host's connect and send, core every lookup and every walk, the daemon and
# the orchestrator the lookups and probe rounds of a failover, and measure
# the campaigns that drive them all: hold them, their tests included, to the
# allocation-hygiene lints as hard errors.
echo "==> cargo clippy, hot-path lints (dataplane proto control topology pan core daemon orchestrator measure)"
cargo clippy -p scion-dataplane -p scion-proto -p scion-control -p sciera-topology -p scion-pan \
    -p sciera-core -p scion-daemon -p scion-orchestrator -p sciera-measure --all-targets -- \
    -D warnings -D clippy::redundant_clone -D clippy::needless_collect

# One delivering hop loop, one router table, one frame-load loop: the
# packet-level walk stays deleted, and a map of routers searched per hop
# exists only where the tests keep the old loop as their reference. The
# deployment and the scale sweep both run `scion_dataplane::load`'s frame
# load, so no ingress shard is drained outside the dataplane crate.
echo "==> one hop loop, one router table, one frame load (core, measure)"
if grep -rn 'fn walk_packets' crates; then
    echo "ci: a second delivering walk is back" >&2
    exit 1
fi
awk 'FNR == 1 { in_tests = 0 }
     /#\[cfg\(test\)\]/ { in_tests = 1 }
     /BTreeMap<IsdAsn, BorderRouter>|drain_next\(/ && !in_tests { print FILENAME ":" FNR ": " $0; found = 1 }
     END { exit found }' crates/core/src/*.rs crates/measure/src/*.rs || {
    echo "ci: routers searched for by AS, or ingress shards drained, outside the tests" >&2
    exit 1
}

# One border-router engine: the decode-level form of the forwarding
# algorithm lives in tests/spec/, and the batch is a loop over the
# frame engine, not a pipeline with its own verify step and batched cipher.
# Every frame verifies every hop field it crosses: no MAC cache.
echo "==> one router engine (dataplane, crypto)"
if grep -rnE 'fn (process_scion_path|batch_mac_pass|verify_batch|encrypt_blocks)\b|struct MacCache\b' crates; then
    echo "ci: a second router engine is back" >&2
    exit 1
fi

# One owner for the deployment's state: what changes after the build sits
# behind the network's one lock, reached through its methods. The secrets are
# the one public field; the prober and the health board get no lock of their
# own, and echoes travel the data plane itself, not a wrapper lending it.
echo "==> one owner (core)"
fields=$(awk '/^pub struct SciEraNetwork/ { on = 1; next }
              on && /^}/ { on = 0 }
              on && /^ *pub[ (]/ && !/^ *pub secrets:/ { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/network.rs)
if [ -n "$fields" ]; then
    printf '%s\n' "$fields" >&2
    echo "ci: SciEraNetwork has a public field other than secrets" >&2
    exit 1
fi
if grep -rnE 'Mutex<(PathProber|HealthBoard)>|struct NetEchoTransport' crates/core/src; then
    echo "ci: the network's state has a second owner" >&2
    exit 1
fi

# One key and one chain per AS: `AsSecrets::derive` is the one place an AS's
# key comes from; that key signs PCBs and topologies, and the CP-PKI
# certifies it. The renewal driver holds only the enrolment key (a renewal
# re-certifies the current chain's public key), and its chain is the one
# chain: a bootstrap server keeps no copy to go stale.
echo "==> one AS key (orchestrator, bootstrap)"
if grep -rnF 'format!("as-' crates src tests examples; then
    echo "ci: an AS key is derived outside AsSecrets::derive" >&2
    exit 1
fi
fields=$(awk '/^pub struct RenewalDriver/ { ty = "SigningKey"; next }
              /^pub struct BootstrapServer/ { ty = "CertificateChain"; next }
              ty && /^}/ { ty = "" }
              ty && index($0, ty) && !/^ *enrolment_key: SigningKey,/ { print FILENAME ":" FNR ": " $0 }' \
    crates/orchestrator/src/renewal.rs crates/bootstrap/src/server.rs)
if [ -n "$fields" ]; then
    printf '%s\n' "$fields" >&2
    echo "ci: the renewal driver holds an AS key, or a bootstrap server a chain" >&2
    exit 1
fi

# A cold miss builds no path body: the combinator derives and keys every
# candidate it reaches from one hop buffer and copies what it keeps into one
# shared answer, whose bodies are built on first deref. Assembling a plan or
# building a body in the combinator is the tests' to do.
echo "==> a cold miss builds no path body (control)"
awk '/#\[cfg\(test\)\]/ { in_tests = 1 }
     /fn assemble[(<]|PathBody \{/ && !in_tests { print FILENAME ":" FNR ": " $0; found = 1 }
     END { exit found }' crates/control/src/combine.rs || {
    echo "ci: the combinator builds paths or bodies before it knows it keeps them" >&2
    exit 1
}

# No event world: the discrete-event simulator crate, the scale sweep's
# relay stage and their counters stay deleted. The network's clock is its
# `now_unix`; an evented clock arrives together with its first caller.
echo "==> no event world"
banned='netsim|sim_events|sim\.dispatch|World<|world\.queue_depth'
if grep -rnE "$banned" crates src tests examples scripts Cargo.toml Cargo.lock |
    grep -v "^scripts/ci\.sh:[0-9]*:banned="; then
    echo "ci: the event world is back" >&2
    exit 1
fi

# One build switch: `profile` is declared by the telemetry crate, whose code
# it gates, and forwarded by the two packages sweeps are run from. Tracing
# is the runtime severity floor; `Telemetry::quiet()` turns events off.
# Code outside telemetry asks `Telemetry::profiling_enabled()`.
echo "==> one build switch (profile)"
for manifest in crates/*/Cargo.toml; do
    case "$manifest" in crates/bench/* | crates/telemetry/*) continue ;; esac
    if grep -q '^\[features\]' "$manifest"; then
        echo "ci: $manifest declares cargo features" >&2
        exit 1
    fi
done
banned='feature = "trace"|default-features|--no-default-features'
if grep -rnE -e "$banned" crates src tests examples scripts Cargo.toml |
    grep -v "^scripts/ci\.sh:[0-9]*:banned="; then
    echo "ci: a compile-time tracing switch is back" >&2
    exit 1
fi
if grep -rn --include='*.rs' 'feature = "profile"' crates src tests examples |
    grep -v '^crates/telemetry/'; then
    echo "ci: the profile feature is read outside crates/telemetry" >&2
    exit 1
fi

# Two unsafe blocks in the product, both kernel dispatches in crypto: the
# SHA-256 one to the SHA-extensions kernel and the AES one to the AES-NI
# kernel, each under a `// SAFETY:` comment naming the CPU-feature detection
# it rests on. A third site fails. The crypto crate denies unsafe code around
# them; every other crate still forbids it outright. (Comment lines may say
# the word.)
echo "==> two unsafe blocks (crypto's SHA-256 and AES dispatches)"
sites=$(grep -rnw --include='*.rs' unsafe crates src | grep -Ev '^[^:]+:[0-9]+:[[:space:]]*//' || true)
files=$(printf '%s\n' "$sites" | grep . | cut -d: -f1 | sort | tr '\n' ' ')
if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne 2 ] ||
    [ "$files" != "crates/crypto/src/aes.rs crates/crypto/src/sha256.rs " ]; then
    echo "ci: unsafe code outside the SHA-256 and AES dispatches:" >&2
    printf '%s\n' "$sites" >&2
    exit 1
fi
while IFS=: read -r file line _; do
    if ! sed -n "$((line - 5)),$((line - 1))p" "$file" | grep -q '// SAFETY:'; then
        echo "ci: the unsafe block at $file:$line has no SAFETY comment" >&2
        exit 1
    fi
done <<< "$sites"
grep -q '^#!\[deny(unsafe_code)\]' crates/crypto/src/lib.rs || {
    echo "ci: crates/crypto/src/lib.rs no longer denies unsafe code" >&2
    exit 1
}
for lib in src/lib.rs crates/*/src/lib.rs; do
    [ "$lib" = crates/crypto/src/lib.rs ] && continue
    grep -q '^#!\[forbid(unsafe_code)\]' "$lib" || {
        echo "ci: $lib no longer forbids unsafe code" >&2
        exit 1
    }
done

# Every pub fn has a caller: a `pub fn` under crates/ whose name is a word of
# no other file under crates, src, tests, examples or benchmark/src is
# surface that rustc's `dead_code` lint cannot see. The ones left are listed
# in scripts/uncalled-pub-fns.txt, as a ratchet: a new one fails, and so does
# a listed one that gained a caller or is gone.
echo "==> every pub fn has a caller (crates)"
lonely=$(mktemp)
grep -rowH --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src |
    sort -u | awk -F: '{ files[$2]++ } END { for (w in files) if (files[w] == 1) print w }' |
    sort > "$lonely"
uncalled=$(grep -rnoE --include='*.rs' '^[[:space:]]*pub fn [A-Za-z_][A-Za-z0-9_]*' crates |
    sed -E 's/^([^:]+):[0-9]+:[[:space:]]*pub fn /\1 /' | sort -u |
    awk 'NR == FNR { lonely[$1] = 1; next } ($2 in lonely) { print $1 "::" $2 }' "$lonely" - |
    sort)
rm -f "$lonely"
listed=$(grep -v '^#' scripts/uncalled-pub-fns.txt | sort)
if [ "$uncalled" != "$listed" ]; then
    comm -13 <(printf '%s\n' "$listed") <(printf '%s\n' "$uncalled") |
        sed 's/^/ci: no caller outside its own file: /' >&2
    comm -23 <(printf '%s\n' "$listed") <(printf '%s\n' "$uncalled") |
        sed 's/^/ci: listed in scripts\/uncalled-pub-fns.txt but called, or gone: /' >&2
    exit 1
fi

# DESIGN names what exists: DESIGN.md is a map of the code that runs, so
# every name it puts in backticks is a word of the Rust sources (or a bench,
# test or example), every repo path it names exists, every "DESIGN §N" cited
# from the code and the other documents is one of its `## N.` sections, and
# it stays small enough to read (40 KB). A `path.rs::name` must name a word
# of that file. Names from std that the tree never spells go in `allow`.
echo "==> DESIGN names what exists"
design_ok=1
allow='Arc::make_mut'
words=$(mktemp)
grep -rhow --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src |
    sort -u > "$words"
stems=$(ls crates/bench/benches/*.rs tests/*.rs examples/*.rs | xargs -n1 basename | sed 's/\.rs$//')
while IFS= read -r name; do
    name=${name%()}
    case " $allow " in *" $name "*) continue ;; esac
    if [[ $name =~ ^([A-Za-z0-9_./-]+\.rs)::([A-Za-z_][A-Za-z0-9_]*)$ ]]; then
        file=${BASH_REMATCH[1]} fn=${BASH_REMATCH[2]}
        if [ ! -f "$file" ] || ! grep -qw "$fn" "$file"; then
            echo "DESIGN.md: \`$name\`: no $fn in $file" >&2
            design_ok=0
        fi
    elif [[ $name =~ ^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$ ||
        $name =~ ^[A-Za-z_][A-Za-z0-9_-]*(::[A-Za-z_][A-Za-z0-9_]*)+$ ]]; then
        last=${name##*::}
        if ! grep -qxF "$last" "$words" && ! grep -qxF "$last" <<< "$stems"; then
            echo "DESIGN.md: \`$name\` names nothing in the tree" >&2
            design_ok=0
        fi
    elif [[ $name =~ ^[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]*)+$ ||
        $name =~ ^[A-Za-z0-9_-]+\.(rs|md|json|toml|sh|lock)$ ]]; then
        if [ ! -e "$name" ] &&
            [ -z "$(find crates src tests examples benchmark scripts -name "$name" -print -quit)" ]; then
            echo "DESIGN.md: \`$name\` is no path in the repo" >&2
            design_ok=0
        fi
    fi
done < <(awk '/^```/ { fence = !fence; next } !fence' DESIGN.md | tr '\n' ' ' |
    grep -o '`[^`]*`' | tr -d '`' | sort -u)
rm -f "$words"
sections=$(grep -oE '^## [0-9]+\.' DESIGN.md | tr -dc '0-9\n')
while IFS=: read -r file line cite; do
    if ! grep -qxF "${cite##*§}" <<< "$sections"; then
        echo "$file:$line: $cite names no section of DESIGN.md" >&2
        design_ok=0
    fi
done < <(grep -rnoE '(DESIGN(\.md)?|`DESIGN\.md`) §[0-9]+' \
    crates src tests examples README.md EXPERIMENTS.md)
size=$(wc -c < DESIGN.md)
if [ "$size" -gt 40960 ]; then
    echo "DESIGN.md is $size bytes (limit 40 960)" >&2
    design_ok=0
fi
if [ "$design_ok" -ne 1 ]; then
    echo "ci: DESIGN.md names something that does not exist, or outgrew its cap" >&2
    exit 1
fi

echo "==> ci OK"
