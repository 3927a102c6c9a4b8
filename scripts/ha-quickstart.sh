#!/usr/bin/env bash
# ha-quickstart.sh — the README's replicated quickstart, on loopback.
#
# Builds slate-global, slate-cluster and slatectl, starts two global
# replicas and two cluster controllers that each name both replicas
# (-global A,B), and asks `slatectl leader` of every daemon until
# exactly one replica reports itself leader and both clusters name it
# as their lease holder. Exits 0 then, 1 if that does not happen within
# 20 seconds. Every daemon is stopped with SIGINT on exit, so each
# writes its counters.
#
# Usage:
#   ./scripts/ha-quickstart.sh          # from the repo root
#   BASE_PORT=28000 ./scripts/ha-quickstart.sh
#
# Ports: BASE_PORT and BASE_PORT+1 for the replicas, BASE_PORT+101 and
# BASE_PORT+102 for the clusters (BASE_PORT defaults to 27000).
set -euo pipefail
cd "$(dirname "$0")/.."

base=${BASE_PORT:-27000}
timeout=20 # seconds
bin=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill -INT "$p" 2>/dev/null || true
	done
	for p in "${pids[@]}"; do
		wait "$p" 2>/dev/null || true
	done
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/" ./cmd/slate-global ./cmd/slate-cluster ./cmd/slatectl

globals=()
for i in 0 1; do
	addr=127.0.0.1:$((base + i))
	"$bin/slate-global" -scenario testdata/two-cluster-overload.json -listen "$addr" \
		-replica "http://$addr" -period 1s -lease-ttl 2s \
		2>>"$bin/global$i.log" &
	pids+=($!)
	globals+=("http://$addr")
done
list=$(IFS=,; echo "${globals[*]}")
clusters=()
i=0
for c in west east; do
	addr=127.0.0.1:$((base + 101 + i))
	"$bin/slate-cluster" -cluster "$c" -listen "$addr" -global "$list" -period 1s \
		2>>"$bin/cluster-$c.log" &
	pids+=($!)
	clusters+=("$addr")
	i=$((i + 1))
done

# field prints the value of one `slatectl leader` line, or nothing.
field() {
	"$bin/slatectl" leader "$1" 2>/dev/null | awk -v k="$2" '$0 ~ "^"k" " { print $NF }'
}

for ((t = 0; t < timeout; t++)); do
	sleep 1
	leaders=()
	for g in "${globals[@]}"; do
		if "$bin/slatectl" leader "$g" 2>/dev/null | grep -q '^global controller leader$'; then
			leaders+=("$g")
		fi
	done
	[ "${#leaders[@]}" -eq 1 ] || continue
	named=0
	for c in "${clusters[@]}"; do
		[ "$(field "$c" leader)" = "${leaders[0]}" ] && named=$((named + 1))
	done
	if [ "$named" -eq "${#clusters[@]}" ]; then
		echo "ha-quickstart: ${leaders[0]} leads; every cluster names it"
		exit 0
	fi
done

echo "ha-quickstart: no single leader named by every cluster within ${timeout}s" >&2
for d in "${globals[@]}" "${clusters[@]}"; do
	echo "--- $d" >&2
	"$bin/slatectl" leader "$d" >&2 || true
done
tail -n 5 "$bin"/*.log >&2 || true
exit 1
