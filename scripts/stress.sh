#!/usr/bin/env bash
# stress.sh — run named tests of one package under the race detector with
# extra repetitions. Every name must be a test of that package: a -run
# pattern naming a deleted or renamed test would otherwise pass silently
# with "[no tests to run]".
#
# usage: scripts/stress.sh PKG TEST...
#   e.g. scripts/stress.sh ./internal/batch/ TestSharedBaseConcurrentSweep
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 PKG TEST..." >&2
	exit 2
fi
pkg=$1
shift
have=$(go test -list '.*' "$pkg")
missing=0
for name in "$@"; do
	if ! grep -qxF "$name" <<<"$have"; then
		echo "stress.sh: $pkg has no test $name" >&2
		missing=1
	fi
done
[ "$missing" -eq 0 ] || exit 1
go test -race -count=3 -run "^($(IFS='|'; echo "$*"))\$" "$pkg"
