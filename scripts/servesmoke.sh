#!/bin/sh
# servesmoke.sh — end-to-end smoke test of the serving layer.
#
# Builds paradised, starts the server on an ephemeral port, then exercises
# the public surface the way a client would: one streamed HTTP query
# (assert 200 + every line valid NDJSON + a stats trailer), one denied
# query (assert 403), the stats endpoint, and a short burst of repeated
# queries (assert every status is 200 and the plan cache reports hits).
# Finishes with SIGTERM and asserts the drain exits cleanly.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() {
	[ -n "${srv_pid:-}" ] && kill "$srv_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/paradised" ./cmd/paradised

"$tmp/paradised" -addr 127.0.0.1:0 -duration 30s >"$tmp/server.log" 2>&1 &
srv_pid=$!

# The server prints "paradised listening on http://ADDR" once ready.
base=""
for _ in $(seq 1 50); do
	base=$(sed -n 's/^paradised listening on \(http:[^ ]*\).*/\1/p' "$tmp/server.log")
	[ -n "$base" ] && break
	kill -0 "$srv_pid" 2>/dev/null || { echo "servesmoke: server died:"; cat "$tmp/server.log"; exit 1; }
	sleep 0.2
done
[ -n "$base" ] || { echo "servesmoke: server never announced its address"; cat "$tmp/server.log"; exit 1; }
echo "servesmoke: server at $base"

# 1. One streamed query: 200, NDJSON all the way down, stats trailer last.
code=$(curl -s -o "$tmp/query.ndjson" -w '%{http_code}' -X POST "$base/v1/query" \
	-H 'Content-Type: application/json' \
	-d '{"sql":"SELECT x, AVG(z) AS za FROM d GROUP BY x"}')
[ "$code" = "200" ] || { echo "servesmoke: query status $code"; cat "$tmp/query.ndjson"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
	python3 - "$tmp/query.ndjson" <<-'EOF'
	import json, sys
	lines = [l for l in open(sys.argv[1]) if l.strip()]
	msgs = [json.loads(l) for l in lines]          # raises on any torn line
	assert msgs[0]["type"] == "schema", msgs[0]
	assert msgs[-1]["type"] == "stats", msgs[-1]
	assert all(m["type"] == "row" for m in msgs[1:-1])
	assert msgs[-1]["rows"] == len(msgs) - 2, (msgs[-1]["rows"], len(msgs))
	print("servesmoke: NDJSON ok (%d rows)" % msgs[-1]["rows"])
	EOF
else
	# Fallback: shape checks only — first line schema, last line stats,
	# every line a complete {...} object.
	head -1 "$tmp/query.ndjson" | grep -q '"type":"schema"'
	tail -1 "$tmp/query.ndjson" | grep -q '"type":"stats"'
	! grep -cv '^{.*}$' "$tmp/query.ndjson" >/dev/null
	echo "servesmoke: NDJSON ok (shape checks)"
fi

# 2. A policy-denied query maps to 403 with a structured body.
code=$(curl -s -o "$tmp/denied.json" -w '%{http_code}' -X POST "$base/v1/query" \
	-d '{"sql":"SELECT user FROM d"}')
[ "$code" = "403" ] || { echo "servesmoke: denied query status $code"; cat "$tmp/denied.json"; exit 1; }
grep -q '"code":"policy_violation"' "$tmp/denied.json"
echo "servesmoke: 403 mapping ok"

# 3. Stats endpoint is live JSON.
curl -sf "$base/v1/stats" | grep -q '"plan_cache"'
echo "servesmoke: stats ok"

# 4. A burst of repeated queries: every one 200, and the plan cache hits.
i=0
while [ "$i" -lt 20 ]; do
	i=$((i + 1))
	for sql in 'SELECT x, AVG(z) AS za FROM d GROUP BY x' 'SELECT x, y FROM d LIMIT 5'; do
		code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/query" -d "{\"sql\":\"$sql\"}")
		[ "$code" = "200" ] || { echo "servesmoke: burst query $i ($sql) status $code"; exit 1; }
	done
done
hits=$(curl -sf "$base/v1/stats" | tr -d ' \n' | sed -n 's/.*"plan_cache":{[^}]*"hits":\([0-9][0-9]*\).*/\1/p')
[ "${hits:-0}" -gt 0 ] || { echo "servesmoke: plan cache reports no hits after the burst"; curl -s "$base/v1/stats"; exit 1; }
echo "servesmoke: burst ok (40 queries, $hits plan-cache hits)"

# 5. SIGTERM drains and exits cleanly.
kill -TERM "$srv_pid"
i=0
while kill -0 "$srv_pid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -le 50 ] || { echo "servesmoke: server did not exit after SIGTERM"; exit 1; }
	sleep 0.2
done
srv_pid=""
grep -q "final stats:" "$tmp/server.log" || { echo "servesmoke: no final stats line"; cat "$tmp/server.log"; exit 1; }
echo "servesmoke: graceful shutdown ok"
echo "servesmoke: all checks passed"
