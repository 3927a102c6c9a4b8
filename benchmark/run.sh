#!/usr/bin/env bash
# run.sh — build the benchmark from source if needed, then run one
# workload:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Everything it writes — the binary,
# the Go build cache, trace files — lands under benchmark/out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "run.sh: $root holds no SLATE module (go.mod, internal/): the benchmark builds the program from source and needs a full checkout" >&2
    exit 2
fi

out=benchmark/out
bin=$out/bin/slate-benchmark
# Keep the toolchain's own writes inside the checkout too: work
# directories, telemetry counters, `go env -w` settings.
export GOCACHE="$root/$out/gocache"
export GOTMPDIR="$root/$out/tmp"
export XDG_CONFIG_HOME="$root/$out/config"
export GOPATH="$root/$out/gopath"
export GOMODCACHE="$root/$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off

# Rebuild when the binary is missing or any Go source in the checkout is
# newer than it; the benchmark links the program's packages, so their
# sources count.
if [ ! -x "$bin" ] || [ -n "$(find . -path "./$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
    mkdir -p "$out/bin" "$GOTMPDIR"
    go build -C benchmark -o "$root/$bin" . >&2
fi

exec "$bin" "$@"
