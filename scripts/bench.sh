#!/usr/bin/env bash
# Runs the hot-path benchmark set and records ns/op, B/op, allocs/op (and
# switches/run or migrations/run where reported) into BENCH_PR10.json, next to
# the committed pre-optimization baseline from scripts/bench_baseline.json.
# The host's CPU count is recorded too: BenchmarkParallelSoC's shards-N
# variants only show speedup when free cores exist, so the number is
# meaningless without it.
#
# The baseline was measured on the seed code; re-running this script only
# refreshes the "optimized" side, so before/after stays comparable as long as
# both run on the same machine. Knobs:
#
#   BENCHTIME=2s COUNT=3 scripts/bench.sh     # longer, repeated runs
#   OUT=/tmp/bench.json scripts/bench.sh      # alternate output path
#   CPUPROFILE=cpu.out scripts/bench.sh       # profile the benchmark runs
#   MEMPROFILE=mem.out scripts/bench.sh       # allocation profile
#
# Profiles come from `go test -cpuprofile/-memprofile`; inspect them with
# `go tool pprof <profile>`. With profiling on, each package's run overwrites
# the profile file, so restrict the set (or use per-package names) when
# profiling a specific benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_PR10.json}"
CPUPROFILE="${CPUPROFILE:-}"
MEMPROFILE="${MEMPROFILE:-}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

bench() { # bench <pattern> <package>
	local extra=()
	[ -n "$CPUPROFILE" ] && extra+=(-cpuprofile "$CPUPROFILE")
	[ -n "$MEMPROFILE" ] && extra+=(-memprofile "$MEMPROFILE")
	go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem "${extra[@]+"${extra[@]}"}" "$2"
}

{
	bench 'BenchmarkKernelProcessSwitch$|BenchmarkRTOSContextSwitch$|BenchmarkContinuationSwitch$|BenchmarkMPEG2SoC$|BenchmarkEngineProcedural$|BenchmarkEngineThreaded$|BenchmarkSMPGlobal' .
	bench 'BenchmarkManyTasks$|BenchmarkManyTaskBodies$|BenchmarkWaitAnyFanout$' .
	bench 'BenchmarkStatistics$|BenchmarkStatisticsSoC$|BenchmarkPerfettoExport$|BenchmarkMetricsJSON$|BenchmarkRecorderAppend$' .
	bench 'BenchmarkTimedWait$|BenchmarkEventNotify$|BenchmarkDeltaCycle$|BenchmarkWaitTimeoutNoFire$' ./internal/sim/
	bench 'BenchmarkTimedQueueOps$|BenchmarkTimedQueueCancel$' ./internal/sim/
	bench 'BenchmarkSweep$' ./internal/batch/
	bench 'BenchmarkExplore$|BenchmarkTraceCodec$' ./internal/explore/
	bench 'BenchmarkParallelSoC' .
} | tee "$RAW"

# Fold the benchmark lines into a JSON object: with COUNT > 1 the last
# repetition of each benchmark wins.
{
	CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
	printf '{\n  "benchtime": "%s",\n  "count": %s,\n  "host_cores": %s,\n  "baseline": ' "$BENCHTIME" "$COUNT" "$CORES"
	cat scripts/bench_baseline.json
	# bench_pr4.json is the same-machine PR 4 snapshot (pre activation fast
	# path / timing wheel) and bench_pr5.json the PR 5 one (pre continuation
	# engine), the "before" sides for the later deltas; the seed baseline
	# above stays as the overall anchor.
	printf ',\n  "pr4": '
	cat scripts/bench_pr4.json
	printf ',\n  "pr5": '
	cat scripts/bench_pr5.json
	printf ',\n  "optimized": '
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			sub(/^Benchmark/, "Benchmark", name)
			ns = bytes = allocs = sw = migr = runs = ""
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i-1)
				else if ($i == "B/op") bytes = $(i-1)
				else if ($i == "allocs/op") allocs = $(i-1)
				else if ($i == "switches/run") sw = $(i-1)
				else if ($i == "migrations/run") migr = $(i-1)
				else if ($i == "runs/op") runs = $(i-1)
			}
			line = "\"" name "\": {\"ns_op\": " ns
			if (bytes != "") line = line ", \"bytes_op\": " bytes
			if (allocs != "") line = line ", \"allocs_op\": " allocs
			if (sw != "") line = line ", \"switches_run\": " sw
			if (migr != "") line = line ", \"migrations_run\": " migr
			if (runs != "") line = line ", \"runs_op\": " runs
			line = line "}"
			if (!(name in seen)) order[++n] = name
			seen[name] = line
		}
		END {
			printf "{\n"
			for (i = 1; i <= n; i++) printf "    %s%s\n", seen[order[i]], (i < n ? "," : "")
			printf "  }"
		}
	' "$RAW"
	printf '\n}\n'
} >"$OUT"

echo "wrote $OUT"
