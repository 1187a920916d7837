#!/usr/bin/env bash
# Paired comparison of host metrics: alternates single-workload benchmark
# runs of a base revision and of the working tree, then prints, for every
# end-to-end metric of BENCHMARK.json, each side's median and quartiles
# over the runs, the median gap, and how many pairs the working tree won.
# Call it from the root of the repository:
#
#   bash scripts/benchpair.sh --base HEAD --workload vm-lifecycle \
#       --seconds 8 --pairs 10 --seed 1
#
# The base is exported with `git archive` into .bench_build/pair/ and both
# sides are built with the isolated Go environment of benchmark/run.sh, so
# nothing outside the checkout is read or written and no network is used.
# Pairs alternate their order (base first, then the working tree first)
# so that a drift in machine speed does not favour one side. Every run's
# -out file and log stay under .bench_build/pair/run-<time>/. A failed
# correctness gate in any run stops the script with a nonzero status.
set -euo pipefail

base=HEAD workload=vm-lifecycle seconds=8 pairs=10 seed=1
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base=$2 ;;
	--workload) workload=$2 ;;
	--seconds) seconds=$2 ;;
	--pairs) pairs=$2 ;;
	--seed) seed=$2 ;;
	*)
		echo "usage: $0 [--base REV] [--workload W] [--seconds S] [--pairs N] [--seed N]" >&2
		exit 2
		;;
	esac
	shift 2
done

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/pair"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

sha=$(git rev-parse --verify "$base^{commit}")
basedir="$out/pair/base-$sha"
if [ ! -d "$basedir" ]; then
	mkdir -p "$basedir.tmp"
	git archive "$sha" | tar -x -C "$basedir.tmp"
	mv "$basedir.tmp" "$basedir"
fi
(cd "$basedir/benchmark" && go build -o "$out/pair/base.bin" .)
(cd "$root/benchmark" && go build -o "$out/pair/change.bin" .)

runs="$out/pair/run-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"
echo "benchpair: $workload, ${seconds}s x $pairs pairs, seed $seed; base $base (${sha:0:12}) vs working tree; runs in ${runs#"$root"/}"

# run SIDE I runs one side from its own tree root.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$basedir
	(cd "$dir" && "$out/pair/$1.bin" --workload "$workload" --seconds "$seconds" \
		--seed "$seed" -out "$runs/$1-$2.json" >"$runs/$1-$2.log" 2>&1) || {
		echo "benchpair: $1 run $2 failed; see $runs/$1-$2.log" >&2
		exit 1
	}
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
	echo "  pair $i/$pairs done"
done

# value FILE METRIC prints the metric's value from a -out file.
value() {
	awk -v m="\"$2\": {" 'index($0, m) { getline; sub(/.*"value": */, ""); sub(/,.*/, ""); print; exit }' "$1"
}

# The end-to-end metrics and which way is better, from BENCHMARK.json.
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$root/BENCHMARK.json")

printf '\n%-12s %12s %12s %12s   %12s %12s %12s   %9s %10s %5s\n' \
	metric base_q1 base_med base_q3 new_q1 new_med new_q3 gap gap/iqr won
while read -r metric better; do
	rows=""
	for i in $(seq 1 "$pairs"); do
		rows+="$(value "$runs/base-$i.json" "$metric") $(value "$runs/change-$i.json" "$metric")"$'\n'
	done
	printf '%s' "$rows" | awk -v metric="$metric" -v better="$better" '
		# q(d, n, i): the i-th quartile of sorted d[1..n], on the (n+1)
		# basis the benchmark itself uses.
		function q(d, n, i,   j, delta) {
			if (n == 1) return d[1]
			j = int(i * (n + 1) / 4)
			if (j < 1) j = 1
			if (j > n - 1) j = n - 1
			delta = i * (n + 1) - j * 4
			return (d[j] * (4 - delta) + d[j + 1] * delta) / 4
		}
		function sortn(d, n,   i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && d[j - 1] > d[j]; j--) { t = d[j]; d[j] = d[j - 1]; d[j - 1] = t }
		}
		{ n++; b[n] = $1; c[n] = $2
		  if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++ }
		END {
			sortn(b, n); sortn(c, n)
			gap = q(c, n, 2) - q(b, n, 2)
			iqr = q(b, n, 3) - q(b, n, 1)
			printf "%-12s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %+8.2f%% %10s %2d/%d\n",
				metric, q(b, n, 1), q(b, n, 2), q(b, n, 3), q(c, n, 1), q(c, n, 2), q(c, n, 3),
				(q(b, n, 2) == 0 ? 0 : 100 * gap / q(b, n, 2)),
				(iqr == 0 ? "-" : sprintf("%.1f", gap / iqr)), won + 0, n
		}'
done <<<"$metrics"
