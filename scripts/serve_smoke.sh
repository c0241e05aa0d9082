#!/usr/bin/env bash
# serve-smoke: end-to-end check of the LLM serving subsystem. Runs ptserve
# on the tiny decoder (4 requests, 8 generated tokens each) and requires
# (1) every request to finish with a nonzero tokens/sec throughput,
# (2) positive TTFT/TPOT percentiles, and (3) the decode loop's
# compile-cache contract: every decode step past the first at a given
# (batch, padded-KV) shape is a cache hit. It then re-runs the scenario
# with -trace, which simulates every iteration instead of replaying
# repeated shapes, and requires (4) the two JSON reports to be equal apart
# from wall_ms. Wired into `make check` via the serve-smoke target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

echo "serve-smoke: building ptserve"
go build -o "$tmp/ptserve" ./cmd/ptserve

echo "serve-smoke: serving 4 requests on decoder-tiny"
scenario=(-model decoder-tiny -small -requests 4 -prompt 8 -gen 8
  -rate 200000 -max-batch 4 -kv-block 32 -seed 1 -json)
"$tmp/ptserve" "${scenario[@]}" >"$tmp/serve.json"

echo "serve-smoke: serving the same scenario with -trace"
"$tmp/ptserve" "${scenario[@]}" -trace "$tmp/t.json" >"$tmp/traced.json"

python3 - "$tmp/serve.json" "$tmp/traced.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
traced = json.load(open(sys.argv[2]))

def fail(msg):
    sys.exit(f"serve-smoke: FAIL: {msg}\n{json.dumps(rep, indent=2)}")

if rep["requests"] != 4:
    fail(f"expected 4 finished requests, got {rep['requests']}")
if rep["tokens_out"] != 32:
    fail(f"expected 32 generated tokens, got {rep['tokens_out']}")
if rep["tokens_per_sec"] <= 0:
    fail(f"tokens/sec must be positive, got {rep['tokens_per_sec']}")
if rep["ttft_p50_ms"] <= 0 or rep["tpot_p50_ms"] <= 0:
    fail("TTFT/TPOT percentiles must be positive")

# The decode cache contract: first step per shape compiles, every later
# step at that shape hits the content-addressed cache.
steps, shapes, hits = rep["decode_steps"], rep["decode_shapes"], rep["decode_cache_hits"]
if steps <= shapes:
    fail(f"degenerate scenario: {steps} decode steps over {shapes} shapes never replays")
if hits != steps - shapes:
    fail(f"decode cache hits {hits}, want {steps - shapes} ({steps} steps over {shapes} shapes)")

for r in rep["per_request"]:
    if r["finished_cycle"] <= r["arrival_cycle"]:
        fail(f"request {r['id']} finished before arriving")

# Tracing simulates every iteration; the default replays repeated shapes.
# Both must give the same answers.
for r in (rep, traced):
    r.pop("wall_ms", None)
if rep != traced:
    fail(f"traced run differs from the default run:\n{json.dumps(traced, indent=2)}")

print(f"serve-smoke: OK ({rep['requests']} requests, {rep['tokens_out']} tokens, "
      f"{rep['tokens_per_sec']:.0f} tokens/s; decode {hits}/{steps} cache hits over {shapes} shapes)")
EOF
