#!/usr/bin/env bash
# Builds sciera-e2e from source and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
#
# Without --workload every workload runs in turn. Metrics go to stderr by
# name with their units; the last line of stdout is the result as one JSON
# object. Exits non-zero, printing no result, if the package cannot be
# built (for instance outside a checkout of the repository).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver names a target directory; by hand, share the repository's, so
# the facade's dependencies are not built twice.
target="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export SCIERA_E2E_OUT="$here/out"
export SCIERA_E2E_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export SCIERA_E2E_COMMIT="$(git -C "$here" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
case " $* " in
*" --workload "*) exec "$target/release/sciera-e2e" "$@" ;;
esac
# A process per workload, so that each one's peak memory is its own.
for workload in connect_cold connect_warm datagram_stream frame_load link_churn; do
    "$target/release/sciera-e2e" --workload "$workload" "$@"
done
