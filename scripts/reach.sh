#!/usr/bin/env bash
# reach.sh — which functions no production entry point reaches.
#
# Builds every cmd and example with coverage counters
# (go build -cover -coverpkg=./...) and runs them the way an operator
# would, offline:
#   - slate-bench -exp all, with -metrics and -trace-out;
#   - the five examples;
#   - slate-emul on testdata/two-cluster-overload.json;
#   - slatectl on the same scenario under each policy, and slatectl diff
#     of two of its tables;
#   - slate-lint ./...;
#   - two slate-global -replica and two slate-cluster, as
#     scripts/ha-quickstart.sh starts them, with a slate-proxy sidecar
#     (gateway@west) in front of a stub app: the stub gets unclassified
#     requests through the sidecar and calls svc-1 back through it, so
#     the sidecar classifies, routes, and syncs with its cluster;
#   - slatectl metrics, optstats and leader against the daemons.
# Every daemon is stopped with SIGINT, so each writes its counters. The
# counters are merged with `go tool covdata`, and every function at
# 0.0 % is printed, one per line, as covdata names it, followed by a
# count. Needs only the Go toolchain; takes about 2 minutes on 2 cores.
#
# Usage:
#   ./scripts/reach.sh                  # from the repo root
#   ./scripts/reach.sh > reach.txt      # the list, for a CI artifact
#   BASE_PORT=29000 ./scripts/reach.sh
#
# Ports: BASE_PORT and BASE_PORT+1 for the replicas, BASE_PORT+101 and
# BASE_PORT+102 for the clusters, BASE_PORT+200 for the sidecar and
# BASE_PORT+201 for the stub app (BASE_PORT defaults to 29000).
set -euo pipefail
cd "$(dirname "$0")/.."

base=${BASE_PORT:-29000}
timeout=20 # seconds for the daemons to elect a leader
work=$(mktemp -d)
bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$GOCOVERDIR"
pids=()
stop_daemons() {
	for p in "${pids[@]}"; do
		kill -INT "$p" 2>/dev/null || true
	done
	for p in "${pids[@]}"; do
		wait "$p" 2>/dev/null || true
	done
	pids=()
}
cleanup() {
	stop_daemons
	rm -rf "$work"
}
trap cleanup EXIT
log() { echo "reach: $*" >&2; }

log "building with coverage counters"
go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/...
# The stub app serves GET / by calling svc-1 through its sidecar
# (X-Slate-Outbound, X-Slate-Context copied) and answers everything
# else itself; `stub send URL N` is the client. Standard library only,
# built without counters: it is not part of the repository.
mkdir -p "$work/stub"
cat >"$work/stub/main.go" <<'EOF'
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
)

func main() {
	if len(os.Args) == 4 && os.Args[1] == "send" {
		n, _ := strconv.Atoi(os.Args[3])
		for i := 0; i < n; i++ {
			resp, err := http.Get(os.Args[2] + []string{"/", "/", "/cart"}[i%3])
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintln(os.Stderr, "status", resp.Status)
				os.Exit(1)
			}
		}
		return
	}
	listen, sidecar := os.Args[1], os.Args[2]
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := &http.Server{Addr: listen, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			io.WriteString(w, "ok")
			return
		}
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodPost, sidecar+"/write/1", nil)
		req.Header.Set("X-Slate-Outbound", "svc-1")
		req.Header["X-Slate-Context"] = r.Header["X-Slate-Context"]
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
	})}
	go func() { <-ctx.Done(); srv.Close() }()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
EOF
(cd "$work/stub" && go mod init stub 2>/dev/null && go build -o "$bin/stub" .)

scenario=testdata/two-cluster-overload.json

log "slate-bench -exp all"
"$bin/slate-bench" -exp all -metrics -trace-out "$work/trace.jsonl" >"$work/bench.out"
for ex in anomaly-detection gcp-topology quickstart trace-learning traffic-classes; do
	log "example $ex"
	"$bin/$ex" >"$work/$ex.out"
done
log "slate-emul"
"$bin/slate-emul" -scenario "$scenario" -duration 3s -seed 7 >"$work/emul.out"
log "slatectl offline"
"$bin/slatectl" -scenario "$scenario" >"$work/ctl.out"
"$bin/slatectl" -scenario "$scenario" -json >"$work/slate.json"
"$bin/slatectl" -scenario "$scenario" -policy waterfall -json >"$work/waterfall.json"
"$bin/slatectl" -scenario "$scenario" -policy locality-failover >"$work/failover.out"
"$bin/slatectl" diff "$work/slate.json" "$work/waterfall.json" >"$work/diff.out"
log "slate-lint ./..."
"$bin/slate-lint" ./... >"$work/lint.out"

log "daemons"
globals=()
for i in 0 1; do
	addr=127.0.0.1:$((base + i))
	"$bin/slate-global" -scenario "$scenario" -listen "$addr" \
		-replica "http://$addr" -period 1s -lease-ttl 2s -event-threshold 0.25 \
		2>>"$work/global$i.log" &
	pids+=($!)
	globals+=("http://$addr")
done
list=$(IFS=,; echo "${globals[*]}")
clusters=()
i=0
for c in west east; do
	addr=127.0.0.1:$((base + 101 + i))
	"$bin/slate-cluster" -cluster "$c" -listen "$addr" -global "$list" -period 1s \
		2>>"$work/cluster-$c.log" &
	pids+=($!)
	clusters+=("$addr")
	i=$((i + 1))
done
proxy=http://127.0.0.1:$((base + 200))
app=127.0.0.1:$((base + 201))
printf '{"gateway@west": "%s", "svc-1@west": "%s", "svc-1@east": "%s"}\n' "$proxy" "$proxy" "$proxy" >"$work/peers.json"
"$bin/stub" "$app" "$proxy" 2>>"$work/stub.log" &
pids+=($!)
"$bin/slate-proxy" -service gateway -cluster west -listen "${proxy#http://}" \
	-local-app "http://$app" -cluster-controller "http://${clusters[0]}" \
	-resolver "$work/peers.json" -sync-period 1s -seed 7 2>>"$work/proxy.log" &
pids+=($!)

leader=
for ((t = 0; t < timeout; t++)); do
	sleep 1
	leaders=()
	for g in "${globals[@]}"; do
		if "$bin/slatectl" leader "$g" 2>/dev/null | grep -q '^global controller leader$'; then
			leaders+=("$g")
		fi
	done
	if [ "${#leaders[@]}" -eq 1 ] && "$bin/stub" send "$proxy" 30 2>>"$work/stub.log"; then
		leader=${leaders[0]}
		break
	fi
done
if [ -z "$leader" ]; then
	log "no single leader, or the sidecar did not answer, within ${timeout}s"
	tail -n 5 "$work"/*.log >&2 || true
	exit 1
fi
# Three sync periods more of traffic, so the sidecar pushes telemetry
# and pulls the rules the leader solved for it.
for _ in 1 2 3; do
	"$bin/stub" send "$proxy" 30
	sleep 1
done
for d in "${globals[@]}" "${clusters[@]}"; do
	"$bin/slatectl" leader "$d" >>"$work/leader.out"
	"$bin/slatectl" metrics "$d" >>"$work/metrics.out"
done
"$bin/slatectl" optstats "$leader" >"$work/optstats.out"
"$bin/slatectl" metrics "$proxy" >>"$work/metrics.out"
stop_daemons

# covdata func ends with a "total" line; every other line is
# file:line:<tab>function<tab>percent.
go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt"
awk '$NF == "0.0%" && $1 != "total:" { print $1, $2 }' "$work/func.txt" | sort
zero=$(awk '$NF == "0.0%" && $1 != "total:"' "$work/func.txt" | wc -l)
outside=$(awk '$NF == "0.0%" && $1 != "total:" && $1 !~ /internal\/analysis\/|cmd\/slate-lint\//' "$work/func.txt" | wc -l)
all=$(grep -vc '^total:' "$work/func.txt")
echo "reach: $zero of $all functions at 0.0 %, $outside outside internal/analysis and cmd/slate-lint"
