#!/usr/bin/env bash
# reach.sh — every function no production entry point reaches, and the
# gate that each one is deleted or carries a written reason.
#
# Builds every cmd and example with coverage counters
# (go build -cover -coverpkg=./...) and runs them the way an operator
# would, offline:
#   - slate-bench -exp all, with -metrics and -trace-out;
#   - the five examples;
#   - slate-emul on testdata/two-cluster-overload.json, with -trace-out;
#   - slatectl on the same scenario under each policy, and slatectl diff
#     of two of its tables;
#   - slate-lint ./..., -audit ./... and -run of two analyzers;
#   - two slate-global -replica -predictive and two slate-cluster (west
#     with -pprof), as scripts/ha-quickstart.sh starts them, on a
#     low-capacity twin of that scenario, with a slate-proxy sidecar
#     (gateway@west) in front of a stub app. The stub gets requests of
#     class "default" through the sidecar, more than west can serve, and
#     unclassified ones, and calls svc-1 back through it; so the sidecar
#     classifies, reports, and routes by the non-local rule the leader
#     plans for svc-1@west;
#   - slatectl metrics, optstats and leader against the daemons;
#   - then the leader is stopped with SIGINT mid-session: the follower
#     restores its snapshot (forecaster included) and leads, and the
#     sidecar's agent sees the new leader epoch and resyncs its rules.
# The tour fails unless the sidecar routes svc-1 calls to east after the
# failover, that is, unless it ends on a table (version > 0) with the
# non-local rule. Every daemon is stopped with SIGINT, so each writes
# its counters. The counters are merged with `go tool covdata`, and
# every function at 0.0 % is printed, one per line, as covdata names it,
# followed by a count. Needs only the Go toolchain; takes about 2.5
# minutes on 2 cores.
#
# The gate: scripts/reach.allow lists the functions that may stay at
# 0.0 %, one a line:
#
#   <package> <function> <reason>
#
# <package> is the package's directory relative to the module root
# ("." for the root package), <function> is the name covdata prints
# (Func, Type.Method or *Type.Method), and <reason>, the rest of the
# line, says why no entry point runs it; it may not be empty. Blank
# lines and lines starting with # are ignored. Entries name no line
# number, so they survive edits around the function. The script exits
# 1, naming the function, if a function at 0.0 % is not listed, if a
# listed function no longer exists, or if an entry has no reason or is
# listed twice. A listed function that happens to run is reported, not
# failed: some run only on a retry or a race the tour does not force.
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
timeout=20 # seconds for an election, a failover or a resync
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
# else itself; `stub send URL N` is the client: N requests, two of
# every three to / with X-Slate-Class: default, the third to /cart
# unclassified. Standard library only, built without counters: it is
# not part of the repository.
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
			req, _ := http.NewRequest(http.MethodGet, os.Args[2]+"/cart", nil)
			if i%3 != 2 {
				req, _ = http.NewRequest(http.MethodGet, os.Args[2]+"/", nil)
				req.Header.Set("X-Slate-Class", "default")
			}
			resp, err := http.DefaultClient.Do(req)
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
"$bin/slate-emul" -scenario "$scenario" -duration 3s -seed 7 -trace-out "$work/emul-trace.jsonl" >"$work/emul.out"
log "slatectl offline"
"$bin/slatectl" -scenario "$scenario" >"$work/ctl.out"
"$bin/slatectl" -scenario "$scenario" -json >"$work/slate.json"
"$bin/slatectl" -scenario "$scenario" -policy waterfall -json >"$work/waterfall.json"
"$bin/slatectl" -scenario "$scenario" -policy locality-failover >"$work/failover.out"
"$bin/slatectl" diff "$work/slate.json" "$work/waterfall.json" >"$work/diff.out"
log "slate-lint"
"$bin/slate-lint" ./... >"$work/lint.out"
"$bin/slate-lint" -audit ./... >"$work/audit.out"
"$bin/slate-lint" -run floatcmp,detrand ./internal/... >"$work/lint-run.out"

log "daemons"
# The scenario's pools serve 800 rps a cluster, far more than the stub
# sends, so the daemons plan for a twin whose pools serve 20 (one
# replica of concurrency 1 at 50 ms): the stub's ≈ 30 rps of class
# default at west then needs svc-1@west to send part of its calls east.
# The regression guard is off: it would judge that plan by the stub's
# sub-millisecond latencies, which are noise.
daemons=$work/daemons.json
cat >"$daemons" <<'EOF'
{
  "topology": {"preset": "two-clusters", "rtt_ms": 40},
  "app": {"preset": "linear-chain",
          "preset_options": {"services": 3, "mean_service_time_ms": 50, "replicas": 1, "concurrency": 1}},
  "demand": {"default": {"west": 30, "east": 2}}
}
EOF
globals=()
gpids=()
for i in 0 1; do
	addr=127.0.0.1:$((base + i))
	"$bin/slate-global" -scenario "$daemons" -listen "$addr" \
		-replica "http://$addr" -period 1s -lease-ttl 2s \
		-predictive -guard=false 2>>"$work/global$i.log" &
	pids+=($!)
	gpids+=($!)
	globals+=("http://$addr")
done
list=$(IFS=,; echo "${globals[*]}")
clusters=()
i=0
for c in west east; do
	addr=127.0.0.1:$((base + 101 + i))
	pprof=()
	if [ "$c" = west ]; then
		pprof=(-pprof)
	fi
	"$bin/slate-cluster" -cluster "$c" -listen "$addr" -global "$list" -period 1s "${pprof[@]}" \
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
	-resolver "$work/peers.json" -sync-period 1s -stale-after 30s -seed 7 2>>"$work/proxy.log" &
pids+=($!)

# metric ADDR REGEX sums the samples of a daemon's metrics whose name
# and labels match REGEX.
metric() {
	"$bin/slatectl" metrics "$1" | awk -v re="$2" '$1 ~ re { s += $NF } END { print s + 0 }'
}
# leaders prints each live replica that reports itself leader.
leaders() {
	for g in "${globals[@]}"; do
		if "$bin/slatectl" leader "$g" 2>/dev/null | grep -q '^global controller leader$'; then
			echo "$g"
		fi
	done
}
# round sends one sync period's traffic through the sidecar.
round() {
	"$bin/stub" send "$proxy" 45 2>>"$work/stub.log"
	sleep 1
}
fail() {
	log "$*"
	tail -n 5 "$work"/*.log >&2 || true
	exit 1
}

leader=
for ((t = 0; t < timeout; t++)); do
	sleep 1
	mapfile -t led < <(leaders)
	if [ "${#led[@]}" -eq 1 ] && "$bin/stub" send "$proxy" 3 2>>"$work/stub.log"; then
		leader=${led[0]}
		break
	fi
done
[ -n "$leader" ] || fail "no single leader, or the sidecar did not answer, within ${timeout}s"
# Three sync periods of traffic, so the sidecar reports telemetry and
# pulls the rules the leader solved for it.
for _ in 1 2 3; do
	round
done
for d in "${globals[@]}" "${clusters[@]}"; do
	"$bin/slatectl" leader "$d" >>"$work/leader.out"
	"$bin/slatectl" metrics "$d" >>"$work/metrics.out"
done
"$bin/slatectl" optstats "$leader" >"$work/optstats.out"
"$bin/slatectl" metrics "$proxy" >>"$work/metrics.out"

log "failover: SIGINT the leader"
for i in 0 1; do
	if [ "${globals[$i]}" = "$leader" ]; then
		kill -INT "${gpids[$i]}"
		wait "${gpids[$i]}" || true
		unset 'globals[i]'
		globals=("${globals[@]}")
		break
	fi
done
failover=
for ((t = 0; t < timeout; t++)); do
	round
	if [ "$(leaders)" = "${globals[0]}" ] &&
		[ "$(metric "$proxy" '^slate_agent_leader_failovers_total')" -gt 0 ]; then
		failover=1
		break
	fi
done
[ -n "$failover" ] || fail "the follower did not lead, or the sidecar did not resync to it, within ${timeout}s"
east='^slate_proxy_routed_requests_total[{].*target="east"'
before=$(metric "$proxy" "$east")
round
after=$(metric "$proxy" "$east")
[ "$after" -gt "$before" ] ||
	fail "the sidecar routed no svc-1 call east after the failover: it holds no non-local rule"
"$bin/slatectl" metrics "$proxy" >>"$work/metrics.out"
stop_daemons

# covdata func ends with a "total" line; every other line is
# file:line:<tab>function<tab>percent. funcs.txt keys each function by
# its package directory and name: "<package> <function> <percent>".
go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt"
awk -v mod="$(go list -m)/" '$1 != "total:" {
	f = $1
	sub(/:[0-9]+:$/, "", f)
	if (index(f, mod) == 1) f = substr(f, length(mod) + 1)
	dir = "."
	if (match(f, /.*\//)) dir = substr(f, 1, RLENGTH - 1)
	print dir, $2, $NF
}' "$work/func.txt" >"$work/funcs.txt"
awk '$NF == "0.0%" && $1 != "total:" { print $1, $2 }' "$work/func.txt" | sort
zero=$(awk '$NF == "0.0%" && $1 != "total:"' "$work/func.txt" | wc -l)
outside=$(awk '$NF == "0.0%" && $1 != "total:" && $1 !~ /internal\/analysis\/|cmd\/slate-lint\//' "$work/func.txt" | wc -l)
all=$(grep -vc '^total:' "$work/func.txt")
echo "reach: $zero of $all functions at 0.0 %, $outside outside internal/analysis and cmd/slate-lint"

# The gate. Each failure goes to stdout and stderr, so it lands both in
# the list (reach.txt) and in the log.
awk '
function problem(msg) {
	print "reach: " msg
	print "reach: " msg >"/dev/stderr"
	bad = 1
}
FILENAME == ARGV[1] {
	if ($0 ~ /^[ \t]*(#|$)/) next
	key = $1 " " $2
	if (NF < 3) problem("scripts/reach.allow:" FNR ": " key " has no reason")
	if (key in line) problem("scripts/reach.allow:" FNR ": " key " is listed twice")
	line[key] = FNR
	listed++
	next
}
{
	key = $1 " " $2
	seen[key] = 1
	if ($3 == "0.0%" && !(key in line)) problem("at 0.0 % and not in scripts/reach.allow: " key)
	if ($3 != "0.0%" && key in line) ran = ran "\n  " key
}
END {
	for (key in line)
		if (!(key in seen)) problem("scripts/reach.allow:" line[key] ": " key " does not exist")
	if (ran != "") print "reach: listed in scripts/reach.allow, yet ran this time:" ran
	print "reach: " listed " functions in scripts/reach.allow"
	exit bad
}' scripts/reach.allow "$work/funcs.txt"
