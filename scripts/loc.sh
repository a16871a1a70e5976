#!/usr/bin/env bash
# Go line counts per top-level package, non-test and test apart, so the
# delta of a change is one command: run it at both commits and diff. Counts
# tracked files only (plain `wc -l`, comments and blanks included);
# *_test.go and anything under a testdata/ directory count as test.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z '*.go' | xargs -0 wc -l | awk '
	$2 == "total" { next }
	{
		n = split($2, part, "/")
		pkg = "."
		if (n > 1) pkg = part[1]
		if (n > 2 && (part[1] == "internal" || part[1] == "cmd")) pkg = part[1] "/" part[2]
		if ($2 ~ /_test\.go$/ || $2 ~ /\/testdata\//) { test[pkg] += $1; tt += $1 } else { code[pkg] += $1; tc += $1 }
		seen[pkg] = 1
	}
	END {
		printf "%-22s %9s %9s\n", "package", "non-test", "test"
		m = 0
		for (p in seen) names[++m] = p
		for (i = 2; i <= m; i++) { # insertion sort: awk has no portable sort
			v = names[i]
			for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
			names[j + 1] = v
		}
		for (i = 1; i <= m; i++) printf "%-22s %9d %9d\n", names[i], code[names[i]], test[names[i]]
		printf "%-22s %9d %9d\n", "total", tc, tt
	}'
