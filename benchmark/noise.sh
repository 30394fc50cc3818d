#!/usr/bin/env bash
# Noise study: runs every workload as two sets of N plain runs (default 5).
# Run i of either set uses seed i, so the two sets measure the same inputs
# and a gap between them is the machine's. Prints per workload x end-to-end
# metric the two medians, their gap, each set's interquartile range / median
# and (max - min) / median next to the bound in BENCHMARK.json, and exits
# non-zero when a gap or an interquartile range exceeds the bound. Takes
# about 2 x N x 2 minutes.
#
#   benchmark/noise.sh [N] [workload...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n="${1:-5}"
shift || true
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
	workloads=(star_wide snowflake_narrow icd_replay)
fi
out="$here/out/noise"
rm -rf "$out"
mkdir -p "$out"
for set in A B; do
	for seed in $(seq 1 "$n"); do
		for w in "${workloads[@]}"; do
			echo "set $set run $seed/$n: $w seed $seed" >&2
			"$here/run.sh" --workload "$w" --seed "$seed" --seconds 30 --trace 0 >"$out/$set-$w-$seed.log"
			tail -n 1 "$out/$set-$w-$seed.log" >>"$out/$set-$w.jsonl"
		done
	done
done
cd "$root"
exec "$root/.bench_build/factorml-bench" -noise-report "$out"
