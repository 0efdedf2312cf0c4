#!/bin/sh
# check.sh — the one gate. Everything CI requires of a change, runnable
# locally: formatting, vet, build, the vectorization guard, both full test
# runs, the serving smoke test and the bench/ module's own checks.
set -eu
cd "$(dirname "$0")/.."

step() { echo "== $*"; }

step gofmt
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:" && echo "$out" && exit 1
fi

step go vet
go vet ./...

step go build
go build ./...

step "facade purity (no internal imports in cmd/ or examples/)"
if grep -rn "paradise/internal" cmd/ examples/; then
	echo "cmd/ and examples/ must use the public facade only" && exit 1
fi

step "docs lint"
sh scripts/docslint.sh

step "structural guard"
sh scripts/vecguard.sh

# The golden plan snapshots (internal/plan/testdata) and the Figure 3
# snapshot (internal/experiments/testdata) run as part of go test;
# regenerate intentionally with:
#   go test ./internal/plan/ -run TestOptimizedPlanGoldens -update
#   go test ./internal/experiments/ -run TestFigure3Golden -update
step "go test"
go test ./...

# -cpu 1,4 runs every test at GOMAXPROCS=1 (the facade defaults to one
# worker: no exchange) and GOMAXPROCS=4 (four workers), so both drivers of
# the segment pipeline run under the race detector.
step "go test -race -cpu 1,4"
go test -race -cpu 1,4 ./...

# The append-style NDJSON encoder must write encoding/json's bytes for any
# cell; the checked-in seeds (server/testdata/fuzz) already ran above.
step "fuzz the row-line encoder (10s)"
go test ./server -run '^$' -fuzz FuzzRowLine -fuzztime 10s

# The column-region decoder must turn any bytes into an error or a vector
# that re-encodes to them; seeds in internal/storage/testdata/fuzz.
step "fuzz the segment column decoder (10s)"
go test ./internal/storage -run '^$' -fuzz FuzzDecodeColVec -fuzztime 10s

step "serving smoke"
sh scripts/servesmoke.sh

# bench/ is its own module (replace paradise => ../): the go commands above
# do not reach it (gofmt, which walks directories, already did).
step "bench module"
(cd bench && go vet ./... && go test ./...)

echo "check: all gates passed"
