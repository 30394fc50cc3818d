#!/usr/bin/env bash
# Paired A/B of two commits on the repository's benchmark (ROADMAP 1a).
#
#   scripts/ab.sh <base-ref> <head-ref> [--workload W] [--pairs N] [--seed S]
#                 [--seconds T] [--trace 0|1]
#
# Each ref is exported with `git archive` into .bench_build/ab/<side>/ (the
# literal ref WORKTREE takes the working tree's tracked and untracked-but-
# not-ignored files instead) and built there by its own benchmark/run.sh,
# so each side runs the harness it was committed with. Every pair runs both
# sides once on the same workload and seed; the side that goes first flips
# every pair, so drift of the machine within a pair falls on both sides
# equally often. Defaults: all three workloads, 10 pairs, seed 1, 30 s,
# plain runs.
#
# Per workload and metric of the harness's machine-readable last line it
# prints each side's median and quartiles, the head/base ratio of the
# medians, and in how many pairs head read lower / higher than base (ties
# count for neither); failed runs are listed and excluded. The per-run
# lines stay in .bench_build/ab/out/ for the record.
#
# The exact column reads the runs as exact counts: "equal" when every
# successful run on both sides printed the same value, "MOVED" when each
# side printed a single value but the two differ, "-" otherwise (a clock,
# say). Run with --trace 1 to get the counters it is meant for.
#
# Two verdict columns apply the rules, with each metric's better direction
# and each end-to-end metric's bound read from BENCHMARK.json:
#   claim  "holds" when at least ten pairs ran, head is better in >= 9/10
#          of them and the medians differ, in head's favour, by more than
#          base's inter-quartile range; "-" otherwise.
#   bound  end-to-end metrics only: "worse" when head's median is worse
#          than base's by more than the bound (relative); else
#          "unresolved" when either side's inter-quartile range exceeds
#          the bound (relative to its median) and not every head run beats
#          every base run; else "ok".
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

usage() {
	sed -n '2,8p' "$0" >&2
	exit 2
}
[ $# -ge 2 ] || usage
base_ref="$1"
head_ref="$2"
shift 2
workloads=()
pairs=10
seed=1
seconds=30
trace=0
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case "$1" in
	--workload) workloads+=("$2") ;;
	--pairs) pairs="$2" ;;
	--seed) seed="$2" ;;
	--seconds) seconds="$2" ;;
	--trace) trace="$2" ;;
	*) usage ;;
	esac
	shift 2
done
[ "${#workloads[@]}" -gt 0 ] || workloads=(star_wide snowflake_narrow icd_replay)

ab="$root/.bench_build/ab"
out="$ab/out"
rm -rf "$ab/base" "$ab/head" "$out"
mkdir -p "$out"

export_side() { # <side> <ref>
	local dir="$ab/$1"
	mkdir -p "$dir"
	if [ "$2" = WORKTREE ]; then
		git ls-files -z --cached --others --exclude-standard |
			while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
			tar --null -T - -cf - | tar -xf - -C "$dir"
	else
		git archive --format=tar "$2" | tar -xf - -C "$dir"
	fi
	echo "$1 = $2 ($(git rev-parse --short "$2" 2>/dev/null || echo working tree))" >&2
}
export_side base "$base_ref"
export_side head "$head_ref"

run_side() { # <side> <workload> <pair>
	local log="$out/$1-$2-$3.log"
	if (cd "$ab/$1" && bash benchmark/run.sh --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$trace") >"$log" 2>&1; then
		tail -n 1 "$log" >"$out/$1-$2-$3.json"
	else
		echo "FAILED: $1 $2 pair $3 (see $log)" >&2
		echo '{"correct":false}' >"$out/$1-$2-$3.json"
	fi
}

for w in "${workloads[@]}"; do
	for p in $(seq 1 "$pairs"); do
		if [ $((p % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
		for side in $order; do
			echo "pair $p/$pairs $w: $side" >&2
			run_side "$side" "$w" "$p"
		done
	done
done

# One line per (workload, pair, side, metric, value) out of the JSON lines,
# then the statistics.
for w in "${workloads[@]}"; do
	for p in $(seq 1 "$pairs"); do
		for side in base head; do
			f="$out/$side-$w-$p.json"
			if ! grep -q '"correct":true' "$f"; then
				echo "$w $p $side __failed__ 1"
				continue
			fi
			grep -o '"[A-Za-z0-9_.]*":{"value":[^,}]*' "$f" |
				sed -e 's/"\([^"]*\)":{"value":\(.*\)/\1 \2/' |
				while read -r name value; do echo "$w $p $side $name $value"; done
		done
	done
done >"$out/samples.txt"

awk -v pairs="$pairs" '
function field(line, key,    r) { # the value of "key" on a BENCHMARK.json line
	if (!match(line, "\"" key "\": *\"?[^\",}]*")) return ""
	r = substr(line, RSTART, RLENGTH); sub(/^"[^"]*": *"?/, "", r); return r
}
function quant(arr, n, q,    pos, lo, frac) { # linear interpolation on the sorted values
	pos = (n - 1) * q; lo = int(pos); frac = pos - lo
	return lo + 1 < n ? arr[lo + 1] * (1 - frac) + arr[lo + 2] * frac : arr[n]
}
function sorted(key, n, dst,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = val[key, i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
FNR == NR { # BENCHMARK.json
	if ((name = field($0, "name")) != "" && (dir = field($0, "better")) != "") {
		better[name] = dir
		# + 0 makes the bound a number: a string would be compared as text,
		# and a relative change printed as "9.6e-05" sorts above "0.1".
		if ((bnd = field($0, "bound")) != "") bound[name] = bnd + 0
	}
	next
}
$4 == "__failed__" { failed[$1, $2] = 1; nfail[$1, $3]++; next }
{
	w = $1; p = $2; side = $3; m = $4
	if (!((w, m) in seen)) { seen[w, m] = 1; order[++nm] = w SUBSEP m }
	v[w, m, p, side] = $5
}
END {
	printf "%-18s %-32s %27s %27s %7s  %-30s %-5s %-5s %s\n", "workload", "metric", "base q1 / median / q3", "head q1 / median / q3", "ratio", "head lower / higher", "exact", "claim", "bound"
	for (i = 1; i <= nm; i++) {
		split(order[i], k, SUBSEP); w = k[1]; m = k[2]
		n = 0; lower = 0; higher = 0; bsame = 1; hsame = 1
		for (p = 1; p <= pairs; p++) {
			if ((w, p) in failed || !((w, m, p, "base") in v) || !((w, m, p, "head") in v)) continue
			n++
			val["b", n] = v[w, m, p, "base"]; val["h", n] = v[w, m, p, "head"]
			if (n == 1) { b0 = v[w, m, p, "base"] ""; h0 = v[w, m, p, "head"] "" } # compared as printed
			if (v[w, m, p, "base"] "" != b0) bsame = 0
			if (v[w, m, p, "head"] "" != h0) hsame = 0
			if (val["h", n] < val["b", n]) lower++
			if (val["h", n] > val["b", n]) higher++
		}
		if (n == 0) continue
		sorted("b", n, b); sorted("h", n, h)
		bm = quant(b, n, 0.5); hm = quant(h, n, 0.5)
		biqr = quant(b, n, 0.75) - quant(b, n, 0.25); hiqr = quant(h, n, 0.75) - quant(h, n, 0.25)
		claim = "-"; verdict = "-"; exact = "-"
		if (bsame && hsame) exact = b0 == h0 ? "equal" : "MOVED"
		if (m in better) {
			s = better[m] == "higher" ? 1 : -1 # sign of an improvement
			wins = s > 0 ? higher : lower
			if (n >= 10 && 10 * wins >= 9 * n && s * (hm - bm) > biqr) claim = "holds"
			if (m in bound) {
				dominates = (s > 0) ? (h[1] > b[n]) : (h[n] < b[1])
				if (bm != 0 && -s * (hm - bm) / bm > bound[m]) verdict = "worse"
				else if (!dominates && (bm == 0 || hm == 0 || biqr / bm > bound[m] || hiqr / hm > bound[m])) verdict = "unresolved"
				else verdict = "ok"
			}
		}
		printf "%-18s %-32s %8.4g /%8.4g /%8.4g %8.4g /%8.4g /%8.4g %7.3f  %-30s %-5s %-5s %s\n",
			w, m, quant(b, n, 0.25), bm, quant(b, n, 0.75), quant(h, n, 0.25), hm, quant(h, n, 0.75),
			(bm != 0 ? hm / bm : 0), sprintf("%d lower, %d higher of %d", lower, higher, n), exact, claim, verdict
	}
	for (key in nfail) { split(key, k, SUBSEP); printf "failed runs: %s %s: %d\n", k[1], k[2], nfail[key] }
}' "$root/BENCHMARK.json" "$out/samples.txt"
