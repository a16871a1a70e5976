#!/usr/bin/env bash
# Kill-9 fault-injection loop for the easybod cluster, runnable by hand or
# in CI (make cluster-smoke runs the Go twin of this harness too). The loop:
#
#   1. starts three easybod nodes as one cluster over a SHARED -data-dir
#   2. creates sessions and drives ask/tell through arbitrary nodes
#   3. kill -9s a random node mid-traffic
#   4. keeps driving through the survivors (they adopt the dead node's
#      sessions from the shared store and replay their write-ahead logs)
#   5. restarts the dead node and lets the heal handoff move sessions home
#
# Before the kill it records which node holds each session (every node's
# GET /cluster/holds `live` list; creation routes to the ring owner, so the
# holder is the owner) and kills the holder of a random session. After the
# restart every session must be live on that same node and on no other
# within 30 seconds, and every session must have completed with the
# full observation budget. With fsync=always or interval no tell acknowledged by any node may
# be lost to the kill; with fsync=off the no-fsync contract allows the
# buffered tail (even a whole young session) to be lost, and the loop
# re-creates and re-derives it — the budget must still be met. Requires
# curl; JSON is picked apart with sed/grep so the script runs on a bare CI
# image.
set -euo pipefail

GO=${GO:-go}
BASE_PORT=${BASE_PORT:-7841}
FSYNC=${FSYNC:-always}
SESSIONS=${SESSIONS:-6}
EVALS=${EVALS:-8}

work=$(mktemp -d)
data="$work/data"
declare -a pids=("" "" "")
declare -a ports=("$BASE_PORT" "$((BASE_PORT + 1))" "$((BASE_PORT + 2))")
peers="n0=http://127.0.0.1:${ports[0]},n1=http://127.0.0.1:${ports[1]},n2=http://127.0.0.1:${ports[2]}"

cleanup() {
	for p in "${pids[@]}"; do
		[ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
	done
	rm -rf "$work"
}
trap cleanup EXIT

echo "== building easybod"
$GO build -o "$work/easybod" ./cmd/easybod

# start_node N: boot cluster member nN and wait for its /readyz.
start_node() {
	local i=$1
	"$work/easybod" -addr "127.0.0.1:${ports[$i]}" -data-dir "$data" -fsync "$FSYNC" \
		-fsync-interval 25ms -compact-every 10 -quiet \
		-node-id "n$i" -peers "$peers" -heartbeat 100ms -suspect-after 2 &
	pids[$i]=$!
	disown "${pids[$i]}" 2>/dev/null || true
	for _ in $(seq 1 100); do
		if curl -fsS "http://127.0.0.1:${ports[$i]}/readyz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	echo "clusterloop: FAIL — node n$i never became ready"
	exit 1
}

# any_base: a random LIVE node's base URL.
any_base() {
	local live=()
	for i in 0 1 2; do
		[ -n "${pids[$i]}" ] && live+=("http://127.0.0.1:${ports[$i]}")
	done
	echo "${live[$((RANDOM % ${#live[@]}))]}"
}

# code_curl PATH [curl args...]: one request against a random live node.
# Prints the HTTP status code (000 on transport failure); the response body
# lands in $work/resp.
code_curl() {
	local code
	code=$(curl -s -o "$work/resp" -w '%{http_code}' --max-time 10 \
		"$(any_base)$1" "${@:2}" 2>/dev/null) || true
	echo "${code:-000}"
}

# cluster_curl PATH [curl args...]: code_curl retried across nodes while
# the cluster reroutes — transport errors, 5xx (node just died, peer
# rerouting), 412 (session mid-transfer) — until a settled answer arrives.
# Prints the response body; the settled code lands in $work/code.
cluster_curl() {
	local code
	for _ in $(seq 1 120); do
		code=$(code_curl "$@")
		case "$code" in
		000 | 5?? | 412) sleep 0.25 ;;
		*)
			echo "$code" >"$work/code"
			cat "$work/resp"
			return 0
			;;
		esac
	done
	echo "clusterloop: FAIL — request $1 never settled (last code $code)" >&2
	exit 1
}

# holders ID: the nodes whose /cluster/holds lists session ID as live, as
# "n0 n2"; a node that does not answer counts as "n1?", so a check against
# it cannot pass.
holders() {
	local out="" body live
	for i in 0 1 2; do
		[ -n "${pids[$i]}" ] || continue
		if ! body=$(curl -fsS --max-time 5 "http://127.0.0.1:${ports[$i]}/cluster/holds" 2>/dev/null); then
			out+="n$i? "
			continue
		fi
		live=$(sed -n 's/.*"live":\[\([^]]*\)\].*/\1/p' <<<"$body")
		if grep -q "\"$1\"" <<<"$live"; then
			out+="n$i "
		fi
	done
	echo "${out% }"
}

field() {
	sed -n "s/.*\"$1\":\([0-9eE.+-]*\).*/\1/p" <<<"$2"
}

evaluate() {
	awk -v xs="$1" 'BEGIN {
		gsub(/[][]/, "", xs); split(xs, x, ",");
		print -((x[1]-0.4)^2 + (x[2]-0.4)^2)
	}'
}

# create_session N: create session load-N (409 = already exists, fine).
create_session() {
	cluster_curl "/sessions" -X POST -d "{
		\"id\":\"load-$1\",\"lo\":[0,0],\"hi\":[1,1],
		\"init_points\":4,\"max_evals\":$EVALS,\"seed\":23,
		\"fit_iters\":4,\"refit_every\":4
	}" >/dev/null
	code=$(cat "$work/code")
	if [ "$code" != 201 ] && [ "$code" != 409 ]; then
		echo "clusterloop: FAIL — creating load-$1 answered $code"
		exit 1
	fi
}

# drive_one ID: one ask/tell round through arbitrary nodes; prints "done"
# when the session has exhausted its budget.
drive_one() {
	a=$(cluster_curl "/sessions/$1/ask" -X POST -d '{}')
	case "$a" in
	*'"status":"done"'*)
		echo done
		;;
	*'"status":"ok"'*)
		pid=$(field proposal_id "$a")
		x=$(sed -n 's/.*"x":\(\[[^]]*\]\).*/\1/p' <<<"$a")
		y=$(evaluate "$x")
		cluster_curl "/sessions/$1/tell" -X POST \
			-H "X-Easybod-Idempotency: ik-$1-$pid" \
			-d "{\"proposal_id\":$pid,\"y\":$y}" >/dev/null
		;;
	*)
		echo "clusterloop: FAIL — unexpected ask response ($(cat "$work/code")): $a" >&2
		exit 1
		;;
	esac
}

echo "== starting 3-node cluster (fsync=$FSYNC, shared data dir $data)"
for i in 0 1 2; do start_node "$i"; done

echo "== creating $SESSIONS sessions through arbitrary nodes"
for s in $(seq 1 "$SESSIONS"); do
	create_session "$s"
done

echo "== driving each session partway"
for s in $(seq 1 "$SESSIONS"); do
	drive_one "load-$s" >/dev/null
	drive_one "load-$s" >/dev/null
done

echo "== recording each session's holder"
declare -a owner
for s in $(seq 1 "$SESSIONS"); do
	owner[$s]=$(holders "load-$s")
	case "${owner[$s]}" in
	n[012]) ;;
	*)
		echo "clusterloop: FAIL — before the kill load-$s is live on '${owner[$s]}', want exactly one node"
		exit 1
		;;
	esac
done
victim=${owner[$((RANDOM % SESSIONS + 1))]#n}
echo "== kill -9 node n$victim mid-traffic (it holds$(for s in $(seq 1 "$SESSIONS"); do
	[ "${owner[$s]}" = "n$victim" ] && printf ' load-%s' "$s"
done))"
kill -9 "${pids[$victim]}"
wait "${pids[$victim]}" 2>/dev/null || true
pids[$victim]=""

echo "== driving to completion through the survivors"
for s in $(seq 1 "$SESSIONS"); do
	# With fsync=off the kill can erase a young session's buffered create
	# record entirely — the id comes back free, never quarantined.
	# Re-create it; the deterministic machine re-derives the same run.
	cluster_curl "/sessions/load-$s" >/dev/null
	if [ "$(cat "$work/code")" = 404 ]; then
		echo "   load-$s erased by the crash (possible with fsync=off); re-creating"
		create_session "$s"
	fi
	for _ in $(seq 1 200); do
		out=$(drive_one "load-$s")
		[ "$out" = done ] && break
	done
done

for s in $(seq 1 "$SESSIONS"); do
	[ "${owner[$s]}" = "n$victim" ] || continue
	now=$(holders "load-$s")
	case "$now" in
	n[012]) echo "   load-$s failed over to $now" ;;
	*)
		echo "clusterloop: FAIL — with n$victim dead, load-$s is live on '$now', want exactly one survivor"
		exit 1
		;;
	esac
done

echo "== reviving n$victim and letting the cluster heal"
start_node "$victim"
# The heal takes a few heartbeats (100 ms each) and one handoff per
# session; the whole loop runs in about 5 s on a 2-vCPU box. A fixed 30 s
# leaves room for a loaded CI runner, and a handoff that never happens
# still fails.
heal_wait=30
deadline=$((SECONDS + heal_wait))
for s in $(seq 1 "$SESSIONS"); do
	while now=$(holders "load-$s"); [ "$now" != "${owner[$s]}" ]; do
		if [ "$SECONDS" -ge "$deadline" ]; then
			echo "clusterloop: FAIL — ${heal_wait}s after n$victim returned, load-$s is live on '$now', want ${owner[$s]} alone"
			exit 1
		fi
		sleep 0.25
	done
done
echo "   every session is live on its holder from before the kill, and on no other node"

for s in $(seq 1 "$SESSIONS"); do
	st=$(cluster_curl "/sessions/load-$s")
	obs=$(field observations "$st")
	if [ "$obs" != "$EVALS" ]; then
		echo "clusterloop: FAIL — session load-$s finished with $obs observations, want $EVALS"
		echo "$st"
		exit 1
	fi
done
echo "clusterloop: ok — $SESSIONS sessions x $EVALS observations survived a kill -9 of n$victim and went home (fsync=$FSYNC)"
