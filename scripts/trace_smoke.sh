#!/usr/bin/env bash
# trace-smoke: end-to-end check of the observability layer. Runs a small
# GEMM through ptsim twice — once plain, once with -trace — requires the
# two cycle counts to be bit-identical (probes must never perturb the
# simulation), and validates the emitted Perfetto JSON with tracecheck,
# including the power-over-time track (core.energy_pj); a two-package
# tensor-parallel run must trace and validate as well. Then runs ptserve
# -trace and validates the stitched serving timeline: per-iteration spans
# shifted onto one clock, with span timestamps covering the reported
# makespan. Wired into `make check` via the trace-smoke target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "trace-smoke: building ptsim, ptserve, and tracecheck"
go build -o "$tmp/ptsim" ./cmd/ptsim
go build -o "$tmp/ptserve" ./cmd/ptserve
go build -o "$tmp/tracecheck" ./scripts/tracecheck

plain=$("$tmp/ptsim" -model gemm -n 64 -small | sed -n 's/^TLS: \([0-9]*\) cycles.*/\1/p')
traced=$("$tmp/ptsim" -model gemm -n 64 -small -trace "$tmp/gemm.trace.json" |
  sed -n 's/^TLS: \([0-9]*\) cycles.*/\1/p')
[ -n "$plain" ] && [ -n "$traced" ] || { echo "trace-smoke: could not parse ptsim output"; exit 1; }

if [ "$plain" != "$traced" ]; then
  echo "trace-smoke: FAIL — tracing changed the cycle count ($plain plain vs $traced traced)"
  exit 1
fi
echo "trace-smoke: cycle counts match ($plain)"

"$tmp/tracecheck" -energy "$tmp/gemm.trace.json"

# Multi-package runs go through the same funnel, so -trace works there too
# (link counters ride along with the engine spans).
echo "trace-smoke: tensor-parallel decoder-tiny on pkg2 with -trace"
"$tmp/ptsim" -model decoder-tiny -ctx 8 -small -topology pkg2 -parallel tensor \
  -trace "$tmp/pkg2.trace.json" >/dev/null
"$tmp/tracecheck" -energy "$tmp/pkg2.trace.json"

echo "trace-smoke: serving 3 requests on decoder-tiny with -trace"
"$tmp/ptserve" -model decoder-tiny -small -requests 3 -prompt 8 -gen 4 \
  -rate 200000 -max-batch 2 -kv-block 16 -seed 1 \
  -trace "$tmp/serve.trace.json" -json >"$tmp/serve.json" 2>/dev/null
"$tmp/tracecheck" -energy "$tmp/serve.trace.json"

# The serving trace is stitched: iteration-local spans are offset onto one
# timeline, so the last span must end near the reported makespan, far past
# the length of any single iteration.
python3 - "$tmp/serve.trace.json" "$tmp/serve.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
rep = json.load(open(sys.argv[2]))
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
last_end = max(e["ts"] + e["dur"] for e in spans)
makespan = rep["cycles"]
if not makespan * 0.5 <= last_end <= makespan:
    sys.exit(f"trace-smoke: FAIL: stitched spans end at {last_end}, "
             f"serving makespan is {makespan} cycles")
print(f"trace-smoke: serving timeline stitched ({len(spans)} spans, "
      f"last ends @{last_end} of {makespan} cycles)")
EOF

echo "trace-smoke: OK"
