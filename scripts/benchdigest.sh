#!/usr/bin/env bash
# Runs one 5 s repo-benchmark workload at seed 1 and holds it to
# scripts/bench_digests.txt: the run must print "correct":true (every block
# walked the same history) and its "# … digest D, best_y Y" line must end in
# the D and Y recorded there for the workload. A block is fixed work, so the
# digest does not depend on the run's length; it changes exactly when the
# optimizer's results do, which for bo-opamp and serve-model is a new proposer
# generation (DESIGN.md §15) and for the others a bug.
#
# Usage: scripts/benchdigest.sh WORKLOAD TRACE   (TRACE 0 or 1)
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="$1" trace="$2"
want="$(awk -v w="$workload" '$1 == w { print "digest " $2 ", best_y " $3 }' "$root/scripts/bench_digests.txt")"
if [ -z "$want" ]; then
	echo "benchdigest: no digest recorded for $workload in scripts/bench_digests.txt" >&2
	exit 1
fi
out="$(bash "$root/benchmark/run.sh" --workload "$workload" --seed 1 --seconds 5 --trace "$trace")"
if ! grep -q '"correct":true' <<<"$out"; then
	echo "$out"
	echo "benchdigest: $workload (trace $trace) did not print \"correct\":true" >&2
	exit 1
fi
got="$(sed -n 's/^# .* blocks, \(digest .*\)$/\1/p' <<<"$out")"
if [ "$got" != "$want" ]; then
	echo "benchdigest: $workload (trace $trace) walked $got; scripts/bench_digests.txt records $want" >&2
	exit 1
fi
echo "ok  $workload (trace $trace): $got"
