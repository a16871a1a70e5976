#!/usr/bin/env bash
# Smoke test for CI: every binary must build, every example must run on a
# tiny evaluation budget, and the easybod daemon must complete an ask/tell
# round trip driven by cmd/easybo in client mode.
set -euo pipefail

GO=${GO:-go}
PORT=${PORT:-7831}
bin=$(mktemp -d)
dpid=""
cleanup() {
	[ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

echo "== building all commands and examples"
for d in ./cmd/* ./examples/*; do
	name=$(basename "$d")
	$GO build -o "$bin/$name" "$d"
	echo "   built $name"
done

echo "== running every example with a tiny budget"
"$bin/quickstart" -evals 10
"$bin/asyncpool" -evals 10
"$bin/opamp" -evals 12
"$bin/classe" -evals 12
"$bin/constrained" -evals 12
# longrun exercises the exact -> feature-space auto-escalation on a budget
# small enough for CI: the escalation must actually happen mid-run.
out=$("$bin/longrun" -evals 60 -escalate 30)
echo "$out" | tail -3
echo "$out" | grep -q "features" || {
	echo "smoke: FAIL — longrun never escalated to the feature-space backend"
	exit 1
}

echo "== easybod ask/tell round trip"
"$bin/easybod" -addr "127.0.0.1:$PORT" -data-dir "$bin/data" -quiet &
dpid=$!
for _ in $(seq 1 50); do
	if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
out=$("$bin/easybo" -serve "http://127.0.0.1:$PORT" -problem branin -workers 2 -evals 8 -init 4 -seed 7)
echo "$out"
echo "$out" | grep -q "8 evaluations (0 failed)" || {
	echo "smoke: FAIL — the ask/tell round trip did not complete all 8 evaluations"
	exit 1
}
echo "$out" | grep -q "best FOM" || {
	echo "smoke: FAIL — no best FOM in the round-trip report"
	exit 1
}
# The client deletes the session it created, log and all: the daemon must
# list no session after the run.
base="http://127.0.0.1:$PORT"
left=$(curl -fsS "$base/sessions")
echo "$left" | grep -Eq '"sessions":(\[\]|null)' || {
	echo "smoke: FAIL — the client left a session on the daemon: $left"
	exit 1
}
# Leave one behind — eight ask/tell round trips by curl, model-based past
# the third — so the offline audit below has a log with checkpoints to
# re-derive.
curl -fsS -X POST "$base/sessions" \
	-d '{"id":"audit","lo":[0,0],"hi":[1,1],"init_points":3,"max_evals":8,"seed":3,"fit_iters":8}' >/dev/null
for _ in $(seq 1 8); do
	a=$(curl -fsS -X POST "$base/sessions/audit/ask" -d '{}')
	pid=$(sed -n 's/.*"proposal_id":\([0-9]*\).*/\1/p' <<<"$a")
	curl -fsS -X POST "$base/sessions/audit/tell" -d "{\"proposal_id\":$pid,\"y\":-0.$pid}" >/dev/null
done
kill "$dpid"
wait "$dpid" 2>/dev/null || true
dpid=""

echo "== easybod -verify: offline audit of the data directory"
out=$("$bin/easybod" -verify "$bin/data")
echo "$out"
echo "$out" | grep -q "audit: ok (16 events, 8 asks re-derived)" || {
	echo "smoke: FAIL — the audit did not re-derive the session left in the data directory"
	exit 1
}
echo "smoke: ok"
