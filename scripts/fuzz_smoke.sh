#!/usr/bin/env bash
# fuzz_smoke.sh -- bounded coverage-guided fuzzing pass over every native
# fuzz target. The targets are whatever `go test -list '^Fuzz' ./...` finds,
# so a new Fuzz* function is fuzzed without editing this script. Each target
# mutates for a few seconds on top of its checked-in seed corpus
# (testdata/fuzz); any crasher fails the gate and is written by the Go
# tooling into the package's testdata/fuzz directory for triage.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-3s}"

# `go test -list` prints a package's matching names, then its "ok <pkg>"
# line; emit one "package target" pair per name.
targets=$(go test -list '^Fuzz' ./... | awk '
  /^Fuzz/ { names[++n] = $1; next }
  /^ok/   { for (i = 1; i <= n; i++) print $2, names[i]; n = 0 }
')
[ -n "$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }

echo "$targets" | while read -r pkg target; do
    echo "fuzz-smoke: $pkg $target ($FUZZTIME)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
done

echo "fuzz-smoke: all $(echo "$targets" | wc -l) targets clean"
