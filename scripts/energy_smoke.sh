#!/usr/bin/env bash
# energy-smoke: end-to-end check of the energy-accounting layer. Two
# parts (event-vs-strict agreement is the energy-determinism oracle's job,
# run by `make crosscheck`):
#
#  1. ptsim -json: the activity counters must count compute, the per-unit
#     energies must sum exactly to the reported total, and the total must
#     be nonzero.
#
#  2. ptserve -json: the serving report carries nonzero total energy and
#     mJ/token, and the per-phase prefill/decode energies sum to the total.
#
# Wired into `make check` via the energy-smoke target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "energy-smoke: building ptsim and ptserve"
go build -o "$tmp/ptsim" ./cmd/ptsim
go build -o "$tmp/ptserve" ./cmd/ptserve

echo "energy-smoke: ptsim gemm-64"
"$tmp/ptsim" -model gemm -n 64 -small -json >"$tmp/ptsim.json" 2>/dev/null

echo "energy-smoke: ptserve decoder-tiny"
"$tmp/ptserve" -model decoder-tiny -small -requests 3 -prompt 8 -gen 4 \
  -rate 200000 -max-batch 2 -kv-block 16 -seed 1 -json >"$tmp/serve.json"

python3 - "$tmp" <<'EOF'
import json, os, sys
tmp = sys.argv[1]

def load(name):
    return json.load(open(os.path.join(tmp, name)))

def fail(msg):
    sys.exit(f"energy-smoke: FAIL: {msg}")

UNITS = ["sa", "vector", "spad", "dram", "noc", "link", "static"]

def check_energy(rep, what):
    act, en = rep.get("activity"), rep.get("energy")
    if not act:
        fail(f"{what}: no activity section")
    if not en:
        fail(f"{what}: no energy section")
    if act["sa_mac_cycles"] + act["vector_cycles"] == 0:
        fail(f"{what}: no compute activity counted: {act}")
    # Exact, not approximate: the total is defined as the sum of the unit
    # fields in this order, so the parsed floats must reproduce it bitwise.
    total = 0.0
    for u in UNITS:
        total += en[f"{u}_mj"]
    if total != en["total_mj"]:
        fail(f"{what}: per-unit energies sum to {total!r}, total_mj is {en['total_mj']!r}")
    if en["total_mj"] <= 0:
        fail(f"{what}: total energy must be positive: {en}")
    return act, en

_, en = check_energy(load("ptsim.json"), "ptsim")

rep = load("serve.json")
if rep.get("total_energy_mj", 0) <= 0:
    fail("ptserve: total_energy_mj missing or zero")
if rep.get("energy_per_token_mj", 0) <= 0:
    fail("ptserve: energy_per_token_mj missing or zero")
pf = rep.get("prefill_energy") or fail("ptserve: prefill_energy missing")
dc = rep.get("decode_energy") or fail("ptserve: decode_energy missing")
if pf["total_mj"] + dc["total_mj"] != rep["total_energy_mj"]:
    fail("ptserve: phase energies do not sum to the total")

print(f"energy-smoke: ptsim {en['total_mj']:.4f} mJ sums exactly; "
      f"ptserve phases sum to the total ({rep['energy_per_token_mj']:.4f} mJ/token)")
EOF

echo "energy-smoke: OK"
