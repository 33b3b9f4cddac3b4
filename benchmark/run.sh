#!/usr/bin/env bash
# bench_e2e driver.
#
#   One run (what BENCHMARK.json's command does):
#     benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   The whole set, written to DIR/BENCH_e2e.json:
#     benchmark/run.sh [--seed N] [--out DIR] [--workload NAME] [--smoke] [--seconds S]
#
# Builds three shapes of the benchmark crate on first use (release, thin LTO):
# the measured one (`trace` hooks compiled in, `det` off) and, for the
# feature-tax probes of `--trace 1`, one with `--features det` and one with
# `--no-default-features`. Cargo output goes to stderr; stdout carries only
# the benchmark's own lines, the last of which is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
bin="$target/release/bench-e2e"
variants="$target/variants"

build() { cargo build --release --offline --manifest-path "$here/Cargo.toml" "$@" 1>&2; }

# A variant binary is rebuilt when it is missing or older than any source.
stale() {
    [ ! -x "$1" ] || [ -n "$(find "$here/src" "$here/Cargo.toml" "$here/../crates" "$here/../vendor" \
        -type f -newer "$1" -print -quit 2>/dev/null)" ]
}
build_variant() {
    local label="$1"; shift
    if stale "$variants/bench-e2e-$label"; then
        build "$@"
        mkdir -p "$variants"
        cp "$bin" "$variants/bench-e2e-$label"
    fi
}
build_variant det --features det
build_variant bare --no-default-features
build # the measured shape, last, so later runs find it up to date

scratch="$target/e2e-scratch"
mkdir -p "$scratch"
common=(--scratch "$scratch" --variants "det=$variants/bench-e2e-det,bare=$variants/bench-e2e-bare")

single=0
for a in "$@"; do [ "$a" = "--trace" ] && single=1; done
if [ "$single" = 1 ]; then
    exec "$bin" "${common[@]}" "$@"
fi

seed=42 out="$here/out" seconds=15 only="" smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) only="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
mkdir -p "$out"
status=0
for w in airfoil_large airfoil_small airfoil_shuffled swe_large serve_mix dist_airfoil; do
    [ -n "$only" ] && [ "$only" != "$w" ] && continue
    for trace in 0 1; do
        "$bin" "${common[@]}" "${smoke[@]}" --out "$out" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
"$bin" merge "$out" || status=1
exit "$status"
