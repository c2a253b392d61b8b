#!/usr/bin/env bash
# Tier-1 CI: lints, build, `cargo test` (every exact gate: scenario digests
# and listing, memory bounds, reference models), a release group for the
# gates about optimised code, then the experiment suite twice (parallel and
# forced-sequential) with bit-identical figure/table numbers required, and a
# wall-clock gate against the committed bench snapshot.
set -euo pipefail
cd "$(dirname "$0")"

# Every snapshot and output of this run lives in one private scratch
# directory, so two runs on one host never read or overwrite each other's
# files; the exit trap removes it.
scratch=$(mktemp -d "${TMPDIR:-/tmp}/lifting-ci.XXXXXX")

# Snapshot the committed bench/summary files: the smoke runs below overwrite
# them in the working tree, and the regression gate needs the committed one.
# The restore runs from a trap so that *any* exit — success, a failed smoke
# run, or an interrupt — puts the committed artifacts back and never leaves
# the worktree dirty. INT/TERM/HUP are trapped explicitly because bash does
# not run the EXIT trap when killed by an untrapped signal.
cp BENCH_experiments.json "$scratch/bench_committed.json"
# experiments_summary.json is git-ignored: a fresh clone has none to put back.
if [ -f experiments_summary.json ]; then
    cp experiments_summary.json "$scratch/summary_committed.json"
fi
restore_artifacts() {
    [ -f "$scratch/bench_committed.json" ] && cp "$scratch/bench_committed.json" BENCH_experiments.json
    [ -f "$scratch/summary_committed.json" ] && cp "$scratch/summary_committed.json" experiments_summary.json
    rm -rf "$scratch"
    return 0
}
trap restore_artifacts EXIT
trap 'restore_artifacts; trap - INT; kill -INT $$' INT
trap 'restore_artifacts; trap - TERM; kill -TERM $$' TERM
trap 'restore_artifacts; trap - HUP; kill -HUP $$' HUP

# This run's own summary and bench snapshot land here (git-ignored) for the
# workflow's artifact upload; never a previous run's.
artifacts=target/ci-artifacts
rm -rf "$artifacts"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# A doc link to a deleted or private item is a broken reference a reader
# follows: rustdoc's link lints catch both.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> only binaries read the environment"
# A library that reads a process-wide variable is a knob no call site can
# see. Product code under crates/*/src reads none, except the worker pool's
# LIFTING_WORKERS; binaries (src/bin/) parse their own command lines.
env_readers=$(grep -rlE 'std::env|\benv::' crates/*/src --include='*.rs' \
    | grep -v '/src/bin/' | grep -vx 'crates/sim/src/pool.rs' || true)
if [ -n "$env_readers" ]; then
    echo "library code reads the environment (only binaries and crates/sim/src/pool.rs may):"
    echo "$env_readers"
    exit 1
fi
echo "environment gate OK"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace
# The event queue's allocation and footprint contracts are about optimized
# code (capacity growth, inlined pushes): pin them in release as well.
cargo test -q --release -p lifting-sim --test zero_alloc --test queue_footprint
# Likewise the chunk table against its naive reference model (the optimized
# build is the one the digests and the benchmark run), the bound on the
# capacity the chunk table and the offers retain, and the crate's unit tests
# (the offers' window and the slot's round among them).
cargo test -q --release -p lifting-gossip --lib --test chunk_table_reference --test buffer_footprint
# And the verification history: against its naive model, and the bound on
# the capacity its logs retain.
cargo test -q --release -p lifting-core --test history_reference --test history_footprint
# And the pending checks: against a naive model that queues every witness
# answer as an event, and the bound on the heap the check rings retain.
cargo test -q --release -p lifting-core --test check_table_reference --test check_footprint
# And the blames in flight: against a naive replay of every copy, and the
# bound on what the buffer retains with its allocation-free steady state.
cargo test -q --release -p lifting-runtime --test blame_delivery --test blame_footprint
# And the score book: against a dense book indexed by node id, whose vote
# sweep returns every charge below the threshold.
cargo test -q --release -p lifting-reputation --test score_book_reference
# The 43 scenario digests (sequentially and at 4 shards) on the build the
# benchmark runs, and the memory bounds with the paper-scale scale/1k smoke
# and headline offers check, which a debug build skips.
cargo test -q --release -p lifting-bench --test scenario_digests
# The pinned digest of the one run whose freeriders collude with all three
# flags set, on the same build.
cargo test -q --release --test collusion
cargo test -q --release -p lifting-runtime --test footprint_bounds

echo "==> examples smoke (quick scale)"
# Clippy only *compiles* the examples; actually execute every one so a broken
# prelude or a panicking scenario is caught here.
cargo build --release --examples
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/quickstart > /dev/null
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/streaming_freeriders > /dev/null
./target/release/examples/collusion_audit > /dev/null
./target/release/examples/planetlab_emulation > /dev/null
echo "examples smoke OK"

echo "==> run_all_experiments --quick (parallel)"
./target/release/run_all_experiments --quick
mv experiments_summary.json "$scratch/summary_parallel.json"

echo "==> run_all_experiments --quick --sequential"
./target/release/run_all_experiments --quick --sequential
mv experiments_summary.json "$scratch/summary_sequential.json"
cp BENCH_experiments.json "$scratch/bench_sequential.json"
mkdir -p "$artifacts"
cp "$scratch/summary_sequential.json" "$artifacts/experiments_summary.json"
cp "$scratch/bench_sequential.json" "$artifacts/BENCH_experiments.json"

echo "==> determinism check (parallel vs sequential)"
python3 - "$scratch/summary_parallel.json" "$scratch/summary_sequential.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
skip = {'timings_secs', 'total_wall_secs', 'workers'}
a = {k: v for k, v in a.items() if k not in skip}
b = {k: v for k, v in b.items() if k not in skip}
if a != b:
    sys.exit('parallel and sequential experiment outputs differ')
# Every registered family must be part of the gated suite: each has its own
# RNG streams and hot-path branches, and a family without a section would
# silently un-gate its plane. The families are read off the summary's own
# scenario list (a name's prefix before '/'); `smoke` is a test fixture.
unswept = {'smoke'}
families = sorted({name.split('/')[0] for name in a.get('scenarios', [])} - unswept)
if not families:
    sys.exit('summary is missing its scenario list')
for section in families:
    if not a.get(section):
        sys.exit(f'summary is missing the {section} section')
# The paper-claims table: every row holds unless it declares a deviation (the
# paper_claims test checks the same rows; this checks what the binary writes).
claims = a.get('claims') or []
if not claims:
    sys.exit('summary is missing the claims table')
changed = [c['id'] for c in claims if c['holds'] == (c['deviation'] is not None)]
if changed:
    sys.exit(f'paper claims whose verdict changed: {changed}')
print(f'parallel and sequential outputs are identical ({", ".join(families)} and '
      f'{len(claims)} paper claims included)')
EOF

echo "==> bench smoke (quick wall-clock vs committed baseline)"
python3 - "$scratch/bench_committed.json" "$scratch/bench_sequential.json" <<'EOF'
import json, sys

def quick_total(d):
    scales = d.get('scales')
    if isinstance(scales, dict) and 'Quick' in scales:
        return scales['Quick'].get('total_wall_secs')
    if d.get('scale') == 'Quick':
        return d.get('total_wall_secs')
    return None

committed = quick_total(json.load(open(sys.argv[1])))
fresh = quick_total(json.load(open(sys.argv[2])))
if committed is None:
    sys.exit('committed BENCH_experiments.json has no Quick-scale total')
if fresh is None:
    sys.exit('fresh bench run produced no Quick-scale total')
print(f'quick suite total_wall_secs: committed {committed:.2f}s, fresh {fresh:.2f}s')
# Allow noisy-machine headroom; a >2x slowdown means a real hot-path
# regression, not scheduling jitter.
if fresh > 2.0 * committed:
    sys.exit(f'bench smoke FAILED: fresh quick run {fresh:.2f}s is more than '
             f'2x the committed baseline {committed:.2f}s')
print('bench smoke OK')
EOF

echo "==> benchmark/check.sh (the repo benchmark: lints, unit tests, smoke of every path)"
# check.sh sends its smoke runs' output to /dev/null: on a failure, run the
# untraced and the traced smoke again with their output in the log.
if ! benchmark/check.sh; then
    echo "benchmark/check.sh FAILED; its smoke runs again, with their output:"
    for trace in "" --trace; do
        echo "--- benchmark run --smoke $trace"
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            run --smoke $trace --out "$scratch/bench_smoke${trace:+_traced}.json" || true
    done
    exit 1
fi

echo "==> OK"
