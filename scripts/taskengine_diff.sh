#!/usr/bin/env bash
# taskengine_diff.sh — check that a change to the task engines or to the
# scenario op compiler leaves every simulated outcome alone.
#
# Runs every non-sweep examples/scenarios/*.json, plus the failing models
# (a deadlock, a model panic, a periodic task missing during its release
# jitter), four ways: the head and the base checkout, each with its default
# task engine and with `-taskengine goroutine`. Each run produces the full
# artifact set (report with -timeline -chronology, CSV, VCD, JSON, SVG,
# Perfetto, metrics JSON, Prometheus text), the exit code and stderr, plus
# the trace.Signature of a sequential run. Four pairs are compared:
#
#   head            vs base            same engine: every artifact identical
#   head-goroutine  vs base-goroutine  same engine: every artifact identical
#   head            vs base-goroutine  across engines: every artifact
#                                      identical once the kernel effort
#                                      counts the engines differ in by design
#                                      are masked (the report's activation
#                                      count, the sim_* counters and
#                                      rtos_continuation_resumes_total)
#   head            vs head-goroutine  across engines, masked: the tree under
#                                      test agrees with itself
#
# Any difference fails the script (exit 1). A change that fixes a failing
# model's outcome on purpose shows up as DIFFER in that model's rows against
# the base only.
#
# usage: scripts/taskengine_diff.sh BASE_DIR [HEAD_DIR] [OUT_DIR]
#   BASE_DIR  a checkout of the base commit (git clone or git archive)
#   HEAD_DIR  the checkout under test (default: this repository)
#   OUT_DIR   where binaries and outputs go (default: a fresh temp dir)
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,31p' "$0" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "${2:-$(dirname "$0")/..}" && pwd)
out=${3:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# The signature helper is compiled inside each checkout's module (it needs
# internal packages) through a build overlay, so no file is written there.
mkdir -p "$out/src"
cat > "$out/src/main.go" <<'EOF'
package main

import (
	"fmt"
	"os"

	"repro/internal/runner"
	"repro/internal/trace"
)

// usage: sig TASKENGINE SCENARIO — prints the finish verdict, the delta
// cycle count and the trace signature of a sequential run.
func main() {
	data, err := os.ReadFile(os.Args[2])
	if err != nil {
		panic(err)
	}
	desc, err := runner.Prepare(data, runner.Options{TaskEngine: os.Args[1]})
	if err != nil {
		panic(err)
	}
	b, err := desc.Build()
	if err != nil {
		panic(err)
	}
	b.RunChecked()
	fmt.Printf("finish %v, %d delta cycles\n%s\n", b.Sys.FinishReason(),
		b.Sys.K.DeltaCount(), trace.Signature(b.Sys.Rec, b.Sys.Now()))
}
EOF

build() { # label tree
	mkdir -p "$out/bin/$1"
	printf '{"Replace":{"%s/_taskengine_diff/main.go":"%s/src/main.go"}}' "$2" "$out" > "$out/bin/$1/overlay.json"
	(cd "$2" && go build -o "$out/bin/$1/rtossim" ./cmd/rtossim &&
		go build -overlay "$out/bin/$1/overlay.json" -o "$out/bin/$1/sig" ./_taskengine_diff)
}
build base "$base"
build head "$head"

run() { # label taskengine scenario-path
	local bin=$out/bin/$1 dir=$out/$(basename "$3" .json)/$1${2:+-$2}
	mkdir -p "$dir"
	"$bin/rtossim" ${2:+-taskengine "$2"} -timeline -chronology \
		-csv "$dir/trace.csv" -vcd "$dir/trace.vcd" -json "$dir/trace.json" \
		-svg "$dir/timeline.svg" -perfetto "$dir/perfetto.json" \
		-metrics "$dir/metrics.json" -prom "$dir/metrics.prom" \
		"$3" > "$dir/stdout.txt" 2> "$dir/stderr.txt" && rc=0 || rc=$?
	echo "$rc" > "$dir/exit"
	grep -v '^wrote ' "$dir/stdout.txt" > "$dir/report.txt" || true
	"$bin/sig" "$2" "$3" > "$dir/signature"
	sed '1s/([0-9]* kernel activations/(N kernel activations/' "$dir/report.txt" > "$dir/report.masked"
	grep -v -E '^(# [A-Z]+ )?(sim_|rtos_continuation_resumes_total)' "$dir/metrics.prom" > "$dir/prom.masked" || true
	python3 - "$dir/metrics.json" > "$dir/metrics.masked" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["metrics"] = [m for m in doc["metrics"] if not m["name"].startswith("sim_")
                  and m["name"] != "rtos_continuation_resumes_total"]
json.dump(doc, sys.stdout, indent=1, sort_keys=True)
EOF
}

same="exit stderr.txt report.txt signature trace.csv trace.vcd trace.json timeline.svg perfetto.json metrics.json metrics.prom"
across="exit stderr.txt report.masked signature trace.csv trace.vcd trace.json timeline.svg perfetto.json metrics.masked prom.masked"
fail=0
for f in "$head"/examples/scenarios/*.json "$head"/internal/scenario/testdata/stuck.json \
	"$head"/internal/runner/testdata/jitter_abort.json "$head"/internal/runner/testdata/panic_swapped.json; do
	name=$(basename "$f" .json)
	case "$name" in *sweep*) continue ;; esac
	run head "" "$f"
	run head goroutine "$f"
	run base "" "$f"
	run base goroutine "$f"
	for pair in "head base $same" "head-goroutine base-goroutine $same" "head base-goroutine $across" \
		"head head-goroutine $across"; do
		set -- $pair
		a=$1 b=$2
		shift 2
		bad=""
		for art in "$@"; do
			cmp -s "$out/$name/$a/$art" "$out/$name/$b/$art" || bad="$bad $art"
		done
		printf '%-18s %-14s vs %-15s %s\n' "$name" "$a" "$b" "$([ -z "$bad" ] && echo ok || echo "DIFFER:$bad")"
		[ -z "$bad" ] || fail=1
	done
	printf '%-18s activations: %s\n' "$name" "$(for r in base-goroutine head-goroutine base head; do
		printf '%s=%s ' "$r" "$(grep -o '([0-9]* kernel' "$out/$name/$r/report.txt" | tr -dc 0-9)"; done)"
done
echo "outputs in $out"
exit $fail
