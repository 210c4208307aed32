#!/usr/bin/env bash
# api_scan.sh — list the exported functions and methods of the main module
# that nothing reaches, and fail if one is not allowlisted.
#
# Declarations checked: exported top-level funcs and methods in the non-test
# .go files under internal/ and cmd/. rtosmodel.go is the public facade, so
# its declarations are roots and never reported.
# Uses counted: whole-word occurrences of each name in every non-test .go file
# of the repository (examples/ and hostbench/ included), with // comments
# stripped, minus the name's own declarations.
#
#   unreached  no use anywhere, tests included; fails the scan unless
#              scripts/api_scan.allow names it (one name and reason a line)
#   test-only  used only by _test.go files; printed for information
#
# Known limit: names are matched bare, so a dead method that shares its name
# with a live function, method or field elsewhere (Name, Reset, ...) is missed.
#
# Usage: bash scripts/api_scan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

idents() { # identifier counts over the files named on stdin, comments stripped
	xargs sed 's://.*$::' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c
}
gofiles() { find . -path ./.git -prune -o -name '*.go' "$@" -print; }

awk '
	FILENAME == ARGV[1] { if ($1 !~ /^#/ && NF) allow[$1] = 1; next }
	FILENAME == ARGV[2] { decl[$2] = $1; names[++n] = $2; next }
	FILENAME == ARGV[3] { src[$2] = $1; next }
	{ test[$2] = $1 }
	END {
		for (i = 1; i <= n; i++) {
			name = names[i]
			if (src[name] > decl[name]) continue
			if (test[name]) { testonly = testonly "  " name "\n"; continue }
			if (name in allow) { unreached = unreached "  " name " (allowlisted)\n"; continue }
			unreached = unreached "  " name "\n"; bad++
		}
		printf "unreached:\n%stest-only:\n%s", unreached, testonly
		if (bad) { printf "api_scan: %d unreached exported name(s) not in scripts/api_scan.allow\n", bad; exit 1 }
	}
' scripts/api_scan.allow \
	<(find internal cmd -name '*.go' ! -name '*_test.go' -exec \
		sed -nE 's/^func (\([^)]*\) )?([A-Z][A-Za-z0-9_]*)[[(].*/\2/p' {} + | sort | uniq -c) \
	<(gofiles ! -name '*_test.go' | idents) \
	<(gofiles -name '*_test.go' | idents)
