#!/usr/bin/env bash
# Exported identifiers per internal/ package (one `go doc -short` line each:
# constants, variables, functions, types), the surface a change adds to or
# takes from what the next change must keep compiling. With a git ref as the
# argument, that commit's counts are printed beside the working tree's.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
GO=${GO:-go}

count() { # count DIR: "package n" lines for DIR's internal packages
	(cd "$1" && for d in $(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} + | sort -u); do
		echo "$d $($GO doc -short "./$d" 2>/dev/null | wc -l)"
	done)
}

if [ $# -eq 0 ]; then
	count . | awk '{ printf "%-26s %5d\n", $1, $2; t += $2 } END { printf "%-26s %5d\n", "total", t }'
	exit
fi
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$1" | tar -x -C "$base"
{ count "$base" | sed 's/^/b /'; count . | sed 's/^/a /'; } | awk '
	$1 == "b" { before[$2] = $3; seen[$2] = 1 }
	$1 == "a" { after[$2] = $3; seen[$2] = 1 }
	END {
		printf "%-26s %6s %6s\n", "package", "before", "after"
		m = 0
		for (p in seen) names[++m] = p
		for (i = 2; i <= m; i++) { # insertion sort: awk has no portable sort
			v = names[i]
			for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
			names[j + 1] = v
		}
		for (i = 1; i <= m; i++) { printf "%-26s %6d %6d\n", names[i], before[names[i]], after[names[i]]; tb += before[names[i]]; ta += after[names[i]] }
		printf "%-26s %6d %6d\n", "total", tb, ta
	}'
