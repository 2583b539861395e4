#!/usr/bin/env bash
# Run one set: every workload once per seed, the timed pass only, and
# collect the result documents in one file for `c3bench compare`.
#
#   benchmark/run_set.sh <set.jsonl> [first-seed] [runs-per-workload] [seconds]
#
# Run it from the repository root. Two sets of the same commit, compared,
# are the A/A check:
#   benchmark/run_set.sh benchmark/out/a.jsonl 1
#   benchmark/run_set.sh benchmark/out/b.jsonl 101
#   cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
#       compare benchmark/out/a.jsonl benchmark/out/b.jsonl
set -euo pipefail
out=${1:?usage: run_set.sh <set.jsonl> [first-seed] [runs] [seconds]}
first=${2:-1}
runs=${3:-10}
seconds=${4:-25}
mkdir -p "$(dirname "$out")"
: > "$out"
for ((i = 0; i < runs; i++)); do
    # Workloads alternate inside each round, so drift over the set lands
    # on all of them alike.
    for w in cg_state neurosys_coll laplace_halo cg_kill; do
        cargo run --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml -- \
            --workload "$w" --seed $((first + i)) --seconds "$seconds" \
            --trace 0 --append "$out" | tail -n 1
    done
done
