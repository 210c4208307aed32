#!/usr/bin/env bash
# benchgate.sh <base.txt> <head.txt> — compares two `go test -bench` outputs
# with benchstat and fails when the head shows a real regression:
#
#   * a statistically significant time (sec/op) increase above THRESHOLD_PCT
#     percent (default 15), or
#   * any statistically significant allocs/op increase — the hot paths are
#     pinned at zero allocations and must stay there.
#
# Rows benchstat marks insignificant ("~") never fail the gate, so noisy CI
# runners don't produce false alarms; use -count >= 6 on both sides so the
# significance test has samples to work with.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: benchgate.sh base.txt head.txt" >&2
	exit 2
fi
THRESHOLD="${THRESHOLD_PCT:-15}"
REPORT="$(mktemp)"
BASE_COMMON="$(mktemp)"
HEAD_COMMON="$(mktemp)"
trap 'rm -f "$REPORT" "$BASE_COMMON" "$HEAD_COMMON"' EXIT

# Only benchmarks present on both sides are comparable: one introduced by the
# head commit has no baseline, and one the head commit deleted has no head
# rows; either side's one-sided rows would read as missing-data regressions
# below. Filter each file down to the other's benchmark set (names compared
# without the -GOMAXPROCS suffix): the head-only filter skips new benchmarks,
# the base-only filter skips deleted ones.
common() { # common <reference.txt> <file.txt>: <file.txt> minus rows absent from <reference.txt>
	awk '
		NR == FNR {
			if ($1 ~ /^Benchmark/) { n = $1; sub(/-[0-9]+$/, "", n); ref[n] = 1 }
			next
		}
		{
			if ($1 ~ /^Benchmark/) {
				n = $1; sub(/-[0-9]+$/, "", n)
				if (!(n in ref)) next
			}
			print
		}
	' "$1" "$2"
}
common "$1" "$2" >"$HEAD_COMMON"
common "$2" "$1" >"$BASE_COMMON"

benchstat "$BASE_COMMON" "$HEAD_COMMON" | tee "$REPORT"

awk -v thr="$THRESHOLD" '
	# Unit headers precede each table; remember which metric the rows carry.
	/sec\/op/    { unit = "sec" }
	/B\/op/      { unit = "bytes" }
	/allocs\/op/ { unit = "allocs" }
	$1 == "geomean" { next }
	{
		delta = ""
		for (i = 1; i <= NF; i++)
			if ($i ~ /^[+-][0-9.]+%$/ || $i == "?") delta = $i
		if (delta == "") next # header, insignificant (~), or non-data line
		pct = delta
		sub(/%$/, "", pct)
		if (unit == "sec" && pct + 0 > thr) {
			printf "REGRESSION (time): %s %s exceeds +%s%%\n", $1, delta, thr
			bad = 1
		}
		# "?" means the base was zero and the head is not — the worst kind
		# of allocs regression, since the path used to be allocation-free.
		if (unit == "allocs" && (delta == "?" || pct + 0 > 0)) {
			printf "REGRESSION (allocs): %s %s\n", $1, delta
			bad = 1
		}
	}
	END { exit bad }
' "$REPORT"

echo "benchgate: no significant regressions (time +${THRESHOLD}% gate, allocs zero-increase gate)"
