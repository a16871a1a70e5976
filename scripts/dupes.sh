#!/usr/bin/env bash
# Duplicate-window scan: which pairs of non-test Go files share runs of
# code, so a fork of one file into another shows up as a number. A window is
# 8 consecutive code lines (blank and comment-only lines dropped, indentation
# stripped, complex128 read as float64 so a copy over the other scalar type
# still matches); a pair's count is the number of distinct windows found in
# both files — or, for a file against itself, found in it twice. Tracked
# files only; *_test.go and testdata/ are skipped. Prints pairs by count,
# largest first (top 15, or `dupes.sh N`). It gates nothing: run it at two
# commits to see whether a change added or removed a copy.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z '*.go' | grep -zv -e '_test\.go$' -e '/testdata/' | xargs -0 awk -v W=8 '
	FNR == 1 { n = 0 }
	{
		line = $0
		gsub(/^[ \t]+|[ \t]+$/, "", line)
		if (line == "" || line ~ /^\/\//) next
		gsub(/complex128/, "float64", line)
		ring[n++ % W] = line
		if (n < W) next
		key = ""
		for (i = n - W; i < n; i++) key = key ring[i % W] "\n"
		if (!((key, FILENAME) in occ)) files[key] = files[key] FILENAME "\n"
		occ[key, FILENAME]++
	}
	END {
		for (key in files) {
			m = split(files[key], f, "\n") - 1
			for (i = 1; i <= m; i++) {
				if (occ[key, f[i]] > 1) pair[f[i] " " f[i]]++
				for (j = i + 1; j <= m; j++) pair[f[i] < f[j] ? f[i] " " f[j] : f[j] " " f[i]]++
			}
		}
		for (p in pair) print pair[p], p
	}' | sort -k1,1nr -k2 | head -n "${1:-15}" | awk '
	BEGIN { printf "%7s  %s\n", "windows", "files" }
	{ printf "%7d  %s  %s\n", $1, $2, $3 }'
