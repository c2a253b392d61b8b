#!/usr/bin/env bash
# Tier-1 CI: build, test, then smoke-run the experiment suite twice (parallel
# and forced-sequential), require bit-identical figure/table numbers, and
# gate on wall-clock regressions against the committed bench snapshot.
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
# Likewise the chunk table against its naive reference model: the optimized
# build is the one the digests and the benchmark run.
cargo test -q --release -p lifting-gossip --test chunk_table_reference
# And the verification history: against its naive model, and the bound on
# the capacity its logs retain.
cargo test -q --release -p lifting-core --test history_reference --test history_footprint
# And the pending checks: against a naive model that queues every witness
# answer as an event, and the bound on the heap the check rings retain.
cargo test -q --release -p lifting-core --test check_table_reference --test check_footprint
# And the blames in flight: against a naive replay of every copy, and the
# bound on what the buffer retains with its allocation-free steady state.
cargo test -q --release -p lifting-runtime --test blame_delivery --test blame_footprint

echo "==> examples smoke (quick scale)"
# Clippy only *compiles* the examples; actually execute the two entry-point
# walkthroughs so a broken prelude or a panicking scenario is caught here.
cargo build --release --examples
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/quickstart > /dev/null
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/streaming_freeriders > /dev/null
echo "examples smoke OK"

echo "==> registry validation (components + scenario manifest)"
# Every registered component of every kind (capability, workload,
# adversary, exporter) must instantiate with default parameters,
# and the scenario registry must match the committed manifest and listing
# exactly — a
# scenario added without updating the manifest (or silently dropped by a
# refactor) fails here before any experiment runs.
./target/release/run_scenario --validate-registry
./target/release/run_scenario --list-names > "$scratch/scenario_names.txt"
diff -u tests/scenario_manifest.txt "$scratch/scenario_names.txt" || {
    echo "scenario registry diverged from tests/scenario_manifest.txt;"
    echo "regenerate with: ./target/release/run_scenario --list-names > tests/scenario_manifest.txt"
    exit 1
}
# Each scenario's composition — every axis, every disturbance with its
# parameters — is pinned too: a refactor that silently changes what a
# scenario declares fails here.
./target/release/run_scenario --list > "$scratch/scenario_listing.txt"
diff -u tests/scenario_listing.txt "$scratch/scenario_listing.txt" || {
    echo "a scenario's declared composition diverged from tests/scenario_listing.txt;"
    echo "if intended, regenerate with: ./target/release/run_scenario --list > tests/scenario_listing.txt"
    exit 1
}
echo "registry validation OK"

echo "==> scenario digests (all registered scenarios, quick scale, seed 7)"
# The outcome digest of every registered scenario is pinned, two columns per
# line: column 1 is behaviour (the hash of the RunOutcome with
# memory_per_node_bytes zeroed), column 2 is memory (mem=<that metric>). A
# refactor of how scenarios are described, resolved or built must not move
# either (the golden digests cover five sweeps; this covers the families they
# do not, `adversary/*` and `resilience/*` included); a change to the layout
# of per-node state moves column 2 only.
# Extra arguments (`--shards K`) go to every run.
scenario_digests() {
    for name in $(cat tests/scenario_manifest.txt); do
        ./target/release/run_scenario "$name" --quick --seed 7 "$@" --exporter digest
    done
}
scenario_digests > "$scratch/scenario_digests.txt"
diff -u tests/scenario_digests.txt "$scratch/scenario_digests.txt" || {
    echo "a scenario's pinned digest moved. Column 1 (0x...) is behaviour: the hash of the"
    echo "RunOutcome with memory_per_node_bytes zeroed. Column 2 (mem=...) is memory: that metric."
    echo "Only column 2 moved: a per-node struct or buffer changed size; if intended, regenerate"
    echo "tests/scenario_digests.txt with the loop above and say which table moved (profile_scenario"
    echo "prints the walk by component) in CHANGES.md. Column 1 moved: a behaviour change."
    exit 1
}
echo "scenario digests OK"

echo "==> scenario digests again, every run through the wave executor (--shards 4)"
# The wave executor rebuilds the sequential commit order from per-shard
# outboxes (Phase B's position-ordered walk). The shard-invariance proptest
# samples 6 (scenario, seed) pairs per run; this diffs all 43 scenarios
# against the same pinned file.
scenario_digests --shards 4 > "$scratch/scenario_digests_sharded.txt"
diff -u tests/scenario_digests.txt "$scratch/scenario_digests_sharded.txt" || {
    echo "a scenario's outcome at 4 shards differs from its pinned sequential digest:"
    echo "Phase A or Phase B of crates/runtime/src/wave.rs no longer reproduces sequential dispatch"
    exit 1
}
echo "sharded scenario digests OK"

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
# Every family sweep must be part of the gated suite: dynamic membership,
# per-stream planes, fault injection, closed-loop adversaries, the online
# recalibration and trace-driven workloads each have their own RNG streams and
# hot-path branches, and losing a section would silently un-gate its plane.
families = 'adversaries churn multistream resilience workload scale_sweep'.split()
for section in families:
    if not a.get(section):
        sys.exit(f'summary is missing the {section} sweep')
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

echo "==> fault-injection smoke (quick scale)"
# One resilience scenario end to end outside the summary plumbing: partition
# waves must produce aborted (never wrongfully blamed) audits, and the run
# must finish with a live stream.
./target/release/run_scenario resilience/partition-waves --quick > "$scratch/fault_smoke.json"
python3 - "$scratch/fault_smoke.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
rpc = d.get('audit_rpc') or {}
if not rpc.get('aborted_unreachable'):
    sys.exit('fault smoke: partition waves produced no aborted audits')
recovery = d.get('recovery') or {}
if len(recovery.get('waves') or []) != 2:
    sys.exit('fault smoke: expected both partition waves in the recovery trace')
health = (d.get('stream_health') or {}).get('fraction_clear') or []
if not health or health[-1] <= 0.2:
    sys.exit(f'fault smoke: stream collapsed under partition waves ({health[-1:]})')
print('fault-injection smoke OK')
EOF

echo "==> scale smoke (scale/1k sharded vs sequential, paper scale)"
# One beyond-golden-size scenario (n=1000, the first population that uses the
# large-world manager sampler) through the sharded wave executor: the readout
# must match the sequential run byte for byte at 4 shards, and the memory
# metric must stay within the per-node budget the scale/ family exists to
# protect.
./target/release/run_scenario scale/1k > "$scratch/scale_sequential.json"
./target/release/run_scenario scale/1k --shards 4 > "$scratch/scale_sharded.json"
python3 - "$scratch/scale_sequential.json" "$scratch/scale_sharded.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
if a != b:
    diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
    sys.exit(f'scale smoke: sharded readout diverged from sequential: {sorted(diff)}')
mem = a.get('memory_per_node_bytes') or 0
if not 0 < mem < 1_000_000:
    sys.exit(f'scale smoke: memory_per_node_bytes out of range ({mem})')
health = (a.get('stream_health') or {}).get('fraction_clear') or []
if not health or health[-1] <= 0.2:
    sys.exit(f'scale smoke: stream collapsed at n=1000 ({health[-1:]})')
print(f'scale smoke OK (sharded == sequential, {mem/1024:.1f} KiB/node)')
EOF

echo "==> queue footprint gate (headline/planetlab and scale/10k, quick scale)"
# Exact, not timed: the heap the event queue retains at the end of the run
# is a capacity walk, so the same build always prints the same three numbers.
# Each bound is the measured ratio plus about a tenth: 2.48x on the 300-node
# headline, whose slots hold a few events each so partial blocks weigh,
# and 1.34x on the 10 000-node population.
./target/release/profile_scenario --scenario headline/planetlab > "$scratch/profile_headline.txt"
./target/release/profile_scenario --scenario scale/10k > "$scratch/profile_scale10k.txt"
python3 - "$scratch/profile_headline.txt" "$scratch/profile_scale10k.txt" <<'EOF'
import re, sys
for path, name, bound in [(sys.argv[1], 'headline/planetlab', 2.75),
                          (sys.argv[2], 'scale/10k', 1.5)]:
    text = open(path).read()
    m = re.search(r'^pending events (\d+)  queue heap bytes (\d+)  \(\S+ pending x (\d+)-byte entry\)$',
                  text, re.M)
    if not m:
        sys.exit(f'queue footprint gate: profile_scenario printed no queue readout for {name}')
    pending, heap, entry = map(int, m.groups())
    if pending == 0 or heap > bound * pending * entry:
        sys.exit(f'queue footprint gate FAILED on {name}: {heap} B retained for {pending} '
                 f'pending {entry}-byte entries (more than {bound}x)')
    print(f'queue footprint OK on {name} ({heap} B for {pending} pending entries, '
          f'{heap / (pending * entry):.2f}x, bound {bound}x)')
EOF

echo "==> chunk table gate (headline/planetlab, quick scale)"
# Exact, not timed: a node's chunk table is one 8-byte word per chunk index
# per plane (emission time and size come from the stream's clock), so the
# same build always prints the same row. The bound is the measured
# 2 088 B/node plus about a tenth; a per-node copy of the stream's facts
# (24-byte slots: 6 266 B/node) fails it.
python3 - "$scratch/profile_headline.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r'^\s+chunk tables\s+\d+ B\s+(\d+) B/node$', text, re.M)
if not m:
    sys.exit('chunk table gate: profile_scenario printed no chunk tables row')
per_node, bound = int(m.group(1)), 2300
if per_node > bound:
    sys.exit(f'chunk table gate FAILED: {per_node} B/node (bound {bound})')
print(f'chunk table gate OK ({per_node} B/node, bound {bound})')
EOF

echo "==> verifier check tables gate (headline/planetlab, quick scale)"
# Exact, not timed: the serve, ack and confirm rows of the walk are one
# token-indexed ring per check kind with bitset evidence. The bound on their
# sum is the measured 2 220 B/node plus about a tenth; the hash tables with
# inline evidence sets they replaced read 3 954 B/node.
python3 - "$scratch/profile_headline.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
rows = {}
for kind in ('serve', 'ack', 'confirm'):
    m = re.search(rf'^\s+{kind} checks\s+\d+ B\s+(\d+) B/node$', text, re.M)
    if not m:
        sys.exit(f'check table gate: profile_scenario printed no {kind} checks row')
    rows[kind] = int(m.group(1))
per_node, bound = sum(rows.values()), 2450
if per_node > bound:
    sys.exit(f'check table gate FAILED: verifier check tables {per_node} B/node {rows} (bound {bound})')
print(f'check table gate OK (verifier check tables {per_node} B/node {rows}, bound {bound})')
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
