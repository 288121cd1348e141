#!/usr/bin/env bash
# Runs the benchmark on two revisions in alternating pairs and compares
# them.
#
#   benchmark/pairs.sh BASE_REV CAND_REV N [run flags...]
#
# Each revision is exported with `git archive` into its own directory
# under a temporary directory (TMPDIR is honoured) and built there with
# its own target directory. Both sides use the candidate's benchmark, so
# only the code under test differs. Pair i runs base then candidate when
# i is odd, candidate then base when it is even, each with
# `gvc-benchmark run --seed $SEED` plus the given flags, writing
# OUT/base/run-NN.json and OUT/cand/run-NN.json. Then
# `gvc-benchmark compare OUT/base OUT/cand` prints one verdict per
# workload and end-to-end metric and sets the exit status.
#
# Environment: SEED (default 42), OUT (default: a directory under the
# temporary one), BASE_ARGS and CAND_ARGS (extra flags for one side,
# e.g. CAND_ARGS="--inject-delay gpu.mem:5" for the gate's self-test),
# KEEP=1 to keep the exported trees.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,21p' "$0" >&2
  exit 2
fi
base_rev=$1 cand_rev=$2 n=$3
shift 3
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/gvc-pairs.XXXXXX")
out=${OUT:-$work/results}
seed=${SEED:-42}
mkdir -p "$out/base" "$out/cand"
[ "${KEEP:-0}" = 1 ] || trap 'rm -rf "$work"' EXIT

export_tree() { # rev dir
  mkdir -p "$2"
  git -C "$root" archive "$1" | tar -x -C "$2"
  # The candidate's benchmark measures both sides.
  rm -rf "$2/benchmark"
  git -C "$root" archive "$cand_rev" benchmark BENCHMARK.json | tar -x -C "$2"
}

build() { # dir
  CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
  CARGO_TARGET_DIR="$1/target" cargo build --release --offline --quiet \
    --manifest-path "$1/Cargo.toml" -p gvc-bench --bin repro
}

run_side() { # side pair-index extra-args
  local dir=$work/$1 file
  file=$(printf '%s/%s/run-%02d.json' "$out" "$1" "$2")
  # shellcheck disable=SC2086 # extra args are word-split on purpose
  (cd "$dir" && CARGO_TARGET_DIR="$dir/target" "$dir/target/release/gvc-benchmark" \
    run --seed "$seed" --out "$file" "${@:4}" $3 > "$file.log")
  echo "pair $2: $1 done"
}

for side in base cand; do
  rev=$base_rev
  [ "$side" = cand ] && rev=$cand_rev
  export_tree "$rev" "$work/$side"
  build "$work/$side"
done

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) = 1 ]; then
    run_side base "$i" "${BASE_ARGS:-}" "$@"
    run_side cand "$i" "${CAND_ARGS:-}" "$@"
  else
    run_side cand "$i" "${CAND_ARGS:-}" "$@"
    run_side base "$i" "${BASE_ARGS:-}" "$@"
  fi
done

echo "results in $out"
"$work/cand/target/release/gvc-benchmark" compare "$out/base" "$out/cand"
