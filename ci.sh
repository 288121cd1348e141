#!/usr/bin/env bash
# The workspace's CI gate, runnable locally or from the GitHub
# workflow. Fails on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

# One scratch directory for every smoke step below, one subdirectory a
# step. cargo rewrites benchmark/Cargo.lock when it builds the
# benchmark package (it drops a stale entry), so the committed lockfile
# is saved here first and put back on exit, even if a step fails.
work="$(mktemp -d)"
cp benchmark/Cargo.lock "$work/benchmark.Cargo.lock"
trap 'cp "$work/benchmark.Cargo.lock" benchmark/Cargo.lock; rm -rf "$work"' EXIT

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
# Bounded fuzz budget for the property/differential suites; override
# with PROPTEST_CASES=N (0 skips generated cases entirely).
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q --workspace

echo "== paranoid invariant sweep (release)"
# All 15 workloads under every design with the gvc::check invariant
# checker on (tests/tests/paranoid.rs also covers one workload per
# access-pattern class — streaming, blocked, divergent — in the
# default suite above).
cargo test --release -q -p gvc-integration --test paranoid -- --include-ignored

echo "== release-mode event-queue regression"
# The past-timestamp clamp must behave identically with debug_asserts
# compiled out; run the engine suite in release to prove it.
cargo test --release -q -p gvc-engine

echo "== seeded injection soak (release)"
# Deterministic fault injection (DESIGN.md §9): 2 designs x 3
# workloads under paranoid checking with inject seed 42.
cargo test --release -q -p gvc-integration --test inject -- --include-ignored

echo "== trace export smoke (release)"
# Cycle-attributed tracing (DESIGN.md §10): export one design x one
# workload under the paranoid attribution check, twice at different
# --jobs values; the artifacts must be byte-identical, valid JSON, and
# contain no NaN/inf (the vendored serializer would emit null).
trace_dir="$work/trace"
./target/release/repro trace vc bfs --scale test --paranoid --json "$trace_dir/a" --jobs 1
./target/release/repro trace vc bfs --scale test --paranoid --json "$trace_dir/b" --jobs 4
cmp "$trace_dir/a/trace_vc_bfs.json" "$trace_dir/b/trace_vc_bfs.json"
cmp "$trace_dir/a/trace_vc_bfs_metrics.json" "$trace_dir/b/trace_vc_bfs_metrics.json"
if command -v python3 >/dev/null; then
    python3 -c "import json,sys; json.load(open(sys.argv[1])); json.load(open(sys.argv[2]))" \
        "$trace_dir/a/trace_vc_bfs.json" "$trace_dir/a/trace_vc_bfs_metrics.json"
fi
if grep -rlE 'NaN|Infinity|-inf|\bnull\b' "$trace_dir"; then
    echo "trace export contains non-finite or null values" >&2
    exit 1
fi

echo "== multi-tenant service smoke (release)"
# Multi-tenant service curves (DESIGN.md §11): one seeded sweep under
# paranoid checking (which adds the cross-tenant residue sweep after
# every eviction), twice at different --jobs values; the JSON must be
# byte-identical — the sweep bypasses the memo cache, so any
# divergence is a real determinism bug.
tenants_dir="$work/tenants"
./target/release/repro tenants --tenants 8 --quantum 256 \
    --design baseline --design vc \
    --scale test --seed 7 --paranoid --json "$tenants_dir/a" --jobs 1
./target/release/repro tenants --tenants 8 --quantum 256 \
    --design baseline --design vc \
    --scale test --seed 7 --paranoid --json "$tenants_dir/b" --jobs 4
cmp "$tenants_dir/a/tenants.json" "$tenants_dir/b/tenants.json"

echo "== soak kill/resume smoke (release)"
# Long-horizon soak harness (DESIGN.md §12): a seeded soak is killed
# at an epoch boundary (--kill-after, exit 76), resumed from its
# on-disk checkpoint, and the resumed run's final report must be
# byte-identical to an uninterrupted run of the same soak. Both
# designs run under fault injection, so the resumed state includes the
# injection plan and the IOMMU's walk-injection generator. Each
# checkpoint must re-parse and contain no non-finite numbers.
soak_dir="$work/soak"
soak_flags=(--tenants 3 --epochs 6 --epoch-cycles 20000 --design baseline
            --design vc --inject 0.01 --seed 9 --paranoid)
./target/release/repro soak "${soak_flags[@]}" --json "$soak_dir/clean"
if ./target/release/repro soak "${soak_flags[@]}" \
    --state "$soak_dir/state" --checkpoint-every 2 --kill-after 3; then
    echo "soak --kill-after must exit with the drill status" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 76 ]; then
        echo "soak --kill-after exited $status, expected 76" >&2
        exit 1
    fi
fi
for ckpt in "$soak_dir/state/soak_baseline.ckpt.json" "$soak_dir/state/soak_vc.ckpt.json"; do
    if grep -E 'NaN|Infinity' "$ckpt"; then
        echo "soak checkpoint $ckpt contains non-finite values" >&2
        exit 1
    fi
    if command -v python3 >/dev/null; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$ckpt"
    fi
done
# A corrupt checkpoint is a named error, not a panic: resuming from a
# copy whose vc checkpoint is cut at half its length, or whose first
# "epoch" key is renamed, exits 1 and names the malformed checkpoint and
# the `$` path of the fault, and the real state directory is untouched.
# Every checkpoint is checked before any cell runs, so the copy's
# baseline checkpoint is still the one the drill wrote.
state_sum=$(cat "$soak_dir"/state/* | cksum)
for fault in truncated renamed; do
    bad="$soak_dir/$fault"
    cp -r "$soak_dir/state" "$bad"
    ckpt="$bad/soak_vc.ckpt.json"
    if [ "$fault" = truncated ]; then
        head -c $(( $(wc -c < "$ckpt") / 2 )) "$ckpt" > "$ckpt.cut"
        mv "$ckpt.cut" "$ckpt"
    else
        sed -i '0,/"epoch"/s//"epoch_renamed"/' "$ckpt"
    fi
    status=0
    ./target/release/repro soak "${soak_flags[@]}" --state "$bad" \
        --checkpoint-every 2 --json "$bad/out" 2> "$bad/stderr" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q 'malformed checkpoint' "$bad/stderr" \
        || ! grep -qF '$.' "$bad/stderr"; then
        echo "resuming a $fault checkpoint exited $status, expected 1 with a named error:" >&2
        cat "$bad/stderr" >&2
        exit 1
    fi
    cmp "$soak_dir/state/soak_baseline.ckpt.json" "$bad/soak_baseline.ckpt.json"
done
if [ "$(cat "$soak_dir"/state/* | cksum)" != "$state_sum" ]; then
    echo "resuming a corrupt copy changed the real state directory" >&2
    exit 1
fi
./target/release/repro soak "${soak_flags[@]}" \
    --state "$soak_dir/state" --checkpoint-every 2 --json "$soak_dir/resumed"
cmp "$soak_dir/clean/soak.json" "$soak_dir/resumed/soak.json"

echo "== soak checkpoint decode/encode smoke (release)"
# Reading a checkpoint and writing it back changes no byte: a run that
# resumes its epoch-2 checkpoint and is killed again after epoch 3 must
# leave the same epoch-3 checkpoint as a run killed after epoch 3 from
# the start, for both designs.
soak_drill() {
    local status=0
    ./target/release/repro soak "${soak_flags[@]}" --state "$1" --kill-after "$2" || status=$?
    if [ "$status" -ne 76 ]; then
        echo "soak --kill-after $2 exited $status, expected 76" >&2
        exit 1
    fi
}
soak_drill "$soak_dir/twice" 2
soak_drill "$soak_dir/twice" 3
soak_drill "$soak_dir/once" 3
for design in baseline vc; do
    cmp "$soak_dir/twice/soak_$design.ckpt.json" "$soak_dir/once/soak_$design.ckpt.json"
done

echo "== reach figure smoke (release)"
# Reach-vs-filter figure (DESIGN.md §13): one seeded collection at two
# --jobs values; the exported JSON must be byte-identical — the huge
# presets rebuild workloads under the THP placement policy, so any
# divergence means layout or promotion order leaked host parallelism.
# Non-finite ratios would also serialize as bare words; grep for them.
reach_dir="$work/reach"
./target/release/repro reach --scale test --seed 7 --json "$reach_dir/a" --jobs 1
./target/release/repro reach --scale test --seed 7 --json "$reach_dir/b" --jobs 4
cmp "$reach_dir/a/reach.json" "$reach_dir/b/reach.json"
if grep -E 'NaN|Infinity' "$reach_dir/a/reach.json"; then
    echo "reach figure contains non-finite values" >&2
    exit 1
fi
if command -v python3 >/dev/null; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$reach_dir/a/reach.json"
fi

echo "== figures jobs-invariance smoke (release)"
# Every figure and table through one Runner and the shared worker
# pool: the whole `repro all` JSON tree must be byte-identical at
# --jobs 1 and --jobs 4, and free of non-finite numbers. (Host-time
# performance is gated by benchmark/pairs.sh; see benchmark/README.md.)
all_dir="$work/all"
./target/release/repro all --scale test --seed 7 --json "$all_dir/A" --jobs 1 >/dev/null
./target/release/repro all --scale test --seed 7 --json "$all_dir/B" --jobs 4 >/dev/null
diff -r "$all_dir/A" "$all_dir/B"
if grep -rE 'NaN|Infinity' "$all_dir/A"; then
    echo "repro all output contains non-finite values" >&2
    exit 1
fi

echo "== committed results match a fresh paper-scale run (release)"
# results/*.json and repro_all.txt are `repro all` at the default
# paper scale and seed (stdout only; the per-figure timings go to
# stderr). A change that moves any figure shows here, in the change
# that causes it, which must then regenerate both on purpose.
results_dir="$work/results"
./target/release/repro all --jobs 2 --json "$results_dir/json" > "$results_dir.txt"
diff -r results "$results_dir/json"
cmp repro_all.txt "$results_dir.txt"

echo "== benchmark package build + tests (release)"
# benchmark/ is its own cargo workspace with path dependencies on
# crates/*, so nothing above compiles it: an API change that breaks
# the benchmark's build would otherwise pass CI. (The exit trap above
# restores the benchmark/Cargo.lock this rewrites.)
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "CI OK"
