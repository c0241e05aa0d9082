#!/usr/bin/env bash
# fuzz_smoke.sh -- bounded coverage-guided fuzzing pass over every native
# fuzz target. Each target mutates for a few seconds on top of its checked-in
# seed corpus (testdata/fuzz); any crasher fails the gate and is written by
# the Go tooling into the package's testdata/fuzz directory for triage.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-3s}"

# package target
TARGETS="
./internal/npu FuzzDMARoundTrip
./internal/npu FuzzDMARangesTotal
./internal/systolic FuzzFunctionalGEMM
./internal/systolic FuzzGEMMTileCyclesMonotonic
./internal/graph FuzzSoftmaxGraph
./internal/sparse FuzzDenseRoundTrip
./internal/sparse FuzzSpMM
./internal/sim FuzzMonotonicQueue
"

echo "$TARGETS" | while read -r pkg target; do
    [ -z "$pkg" ] && continue
    echo "fuzz-smoke: $pkg $target ($FUZZTIME)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
done

echo "fuzz-smoke: all targets clean"
