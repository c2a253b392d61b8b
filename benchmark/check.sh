#!/bin/sh
# Format, lints, unit tests, and a smoke run of every code path of the
# benchmark (untraced, traced, compare). Run from anywhere; takes a few
# seconds once built. Measures nothing: use `run` without --smoke for numbers.
set -eu
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --quiet --manifest-path "$manifest"

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
out=benchmark/out
bench run --smoke --out "$out/smoke.json" >/dev/null
bench run --smoke --trace --out "$out/smoke-traced.json" >/dev/null
# A file agrees with itself: exercises `compare` on both kinds of result.
bench compare "$out/smoke.json" "$out/smoke.json" >/dev/null
bench compare "$out/smoke-traced.json" "$out/smoke-traced.json" >/dev/null
# The driver's calling convention, and its exit code on an unknown workload.
bench run --smoke --workload gossip-only --seed 7 --seconds 1 --trace 0 --out "$out/smoke-one.json" | tail -n 1 | grep -q '"correct":true'
if bench run --smoke --workload no-such-workload >/dev/null 2>&1; then
    echo "check.sh: an unknown workload must fail" >&2
    exit 1
fi
echo "benchmark/check.sh: ok"
