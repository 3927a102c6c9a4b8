#!/usr/bin/env bash
# check.sh — the expanded tier-1 gate for the SLATE repo.
#
# Runs, in order (each step timed):
#   1. gofmt -l           (formatting drift)
#   2. go vet ./...       (stdlib static checks)
#   3. slate-lint ./...   (SLATE-specific analyzers: ctxprop, detorder,
#                          detrand, floatcmp, lockguard, plus the
#                          interprocedural hotalloc and lockorder — see
#                          internal/analysis and `slate-lint -list`)
#   4. go test -race -coverprofile ./...  (full suite under the race
#                          detector, with per-package coverage; includes
#                          TestFiguresPinned, which holds the paper's
#                          figure values to FIGURES.json bit for bit,
#                          and TestAuditRepoClean: every //slate:nolint
#                          must carry a -- reason)
#   5. coverage gate      (total statement coverage >= COVER_THRESHOLD)
#   6. benchmark module   (go vet + go test -race in benchmark/, its
#                          own Go module: `./...` above does not descend
#                          into it, so an API prune that breaks
#                          benchmark/adapter.go would otherwise surface
#                          only at the benchmark gate; its smoke tests
#                          drive the live control plane over sockets with
#                          concurrent reports and pushes, which is where
#                          the ingest's reused buffers meet the race
#                          detector)
#
# Usage:
#   ./scripts/check.sh                 # everything, from the repo root
#   SKIP_RACE=1 ./scripts/check.sh     # quick mode: plain `go test`, in both modules
#   FAIL_FAST=1 ./scripts/check.sh     # abort at the first failing step
#   COVER_THRESHOLD=75 ./scripts/check.sh
#
# Defaults to collecting every failure before exiting non-zero, so one
# run reports all problems; CI sets FAIL_FAST=1 for faster signal.
# When $CI is set, -count=1 is forced so cached test results are never
# trusted on a fresh runner.

set -u

cd "$(dirname "$0")/.."

# Total statement coverage was 80.5% when the floor was last ratcheted
# (PR 7; go1.24, all packages). The floor sits just under current so it
# catches coverage collapse and meaningful slippage, with a point of
# headroom for ordinary drift.
COVER_THRESHOLD=${COVER_THRESHOLD:-79}
COVER_PROFILE=${COVER_PROFILE:-coverage.out}

if [ -n "${CI:-}" ]; then
    export GOFLAGS="${GOFLAGS:+$GOFLAGS }-count=1"
fi

fail=0
step_started=0
step_name=""

begin() {
    step_name="$1"
    step_started=$(date +%s)
    echo "==> $step_name"
}

finish() { # $1 = exit status of the step
    local dur=$(( $(date +%s) - step_started ))
    if [ "$1" -ne 0 ]; then
        echo "--- ${step_name}: FAILED (${dur}s)" >&2
        fail=1
        if [ "${FAIL_FAST:-}" = "1" ]; then
            echo "check.sh: FAILED (fail-fast)" >&2
            exit 1
        fi
    else
        echo "--- ${step_name}: ok (${dur}s)"
    fi
}

begin "gofmt"
unformatted=$(find . -name '*.go' -not -path './testdata/*' -not -path './.git/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    finish 1
else
    finish 0
fi

begin "go vet ./..."
go vet ./...
finish $?

begin "slate-lint ./..."
go run ./cmd/slate-lint ./...
finish $?

if [ "${SKIP_RACE:-}" = "1" ]; then
    begin "go test -coverprofile ./... (SKIP_RACE=1)"
    go test -coverprofile="$COVER_PROFILE" ./...
    finish $?
else
    begin "go test -race -coverprofile ./..."
    go test -race -coverprofile="$COVER_PROFILE" ./...
    finish $?
fi

begin "coverage >= ${COVER_THRESHOLD}%"
if [ -f "$COVER_PROFILE" ]; then
    total=$(go tool cover -func="$COVER_PROFILE" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
    echo "total statement coverage: ${total}%"
    if awk -v t="$total" -v min="$COVER_THRESHOLD" 'BEGIN { exit !(t+0 >= min+0) }'; then
        finish 0
    else
        echo "coverage ${total}% is below the ${COVER_THRESHOLD}% floor" >&2
        finish 1
    fi
else
    echo "no coverage profile at $COVER_PROFILE (test step failed?)" >&2
    finish 1
fi

if [ "${SKIP_RACE:-}" = "1" ]; then
    begin "benchmark module: go vet + go test (SKIP_RACE=1)"
    go -C benchmark vet ./... && go -C benchmark test ./...
    finish $?
else
    begin "benchmark module: go vet + go test -race"
    go -C benchmark vet ./... && go -C benchmark test -race ./...
    finish $?
fi

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED" >&2
    exit 1
fi
echo "check.sh: OK"
