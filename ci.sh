#!/bin/sh
# Tier-1 verification gate. Run from the repository root: ./ci.sh
# Every check here must stay green; `make ci` is an alias.
set -eu

echo '== gofmt =='
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== go vet =='
go vet ./...

echo '== lint (dralint + treelint + tablecheck + allocgate) =='
# dralint checks the depth-register automata tables; treelint checks the
# Go-level contracts (plain kernels, enum totality, pool discipline, atomic
# fields, Close errors, and the flow-sensitive allocfree/lifecycle/hotlock
# analyses); tablecheck verifies every compiled transition table (shape,
# closure, flags, totality, bounded equivalence); allocgate, the
# compiler-diagnostic gate, fails if a //treelint:plain kernel body reaches
# the heap per the compiler's escape analysis or a //treelint:plain batch
# kernel retains a bounds check.
# treelint runs under go vet so the _test.go variants of every package are
# analyzed too.
make lint

echo '== go build =='
go build ./...

echo '== go test (with coverage) =='
# One pass runs the whole suite and produces the coverage profile for the
# gate below. -coverpkg counts cross-package coverage of the gated
# packages, which most of the suite exercises. GATED_PKGS is the single
# source of truth: both the ./-relative -coverpkg form and the
# module-path covercheck form are derived from it.
GATED_PKGS="internal/core internal/parallel internal/obs internal/analysis internal/encoding internal/alphabet internal/tablecheck internal/product internal/diagjson internal/stackeval"
coverpkg=""
checkpkg=""
for p in $GATED_PKGS; do
    coverpkg="${coverpkg:+$coverpkg,}./$p"
    checkpkg="${checkpkg:+$checkpkg,}stackless/$p"
done
go test -coverprofile=cover.out -coverpkg="$coverpkg" ./...

echo '== coverage gate (>=80% on the gated packages) =='
go run ./cmd/covercheck -min 80 -packages "$checkpkg" cover.out

echo '== go test -race (internal) =='
go test -race ./internal/...

echo '== go test -race (observability, earliest, multi-query, workers, recognize) =='
# The public batteries that drive the shared sequential passes and
# MultiQuery's goroutine fan-out hardest, under the race detector.
go test -race -run 'Obs|Earliest|Multi|Workers|Recognize' .

echo '== e2ebench (vet + tests) =='
# The end-to-end benchmark is its own module (e2ebench/, replace stackless
# => ../) and drives the engine's layers through their exported functions.
# Building and testing it here makes an engine API change that breaks the
# benchmark fail this gate instead of the benchmark run.
(cd e2ebench && go vet ./... && go test ./...)

echo '== fuzz smoke =='
make fuzz-smoke

echo 'tier-1 gate: OK'
