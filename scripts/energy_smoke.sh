#!/usr/bin/env bash
# energy-smoke: end-to-end check of the energy-accounting layer. Two
# parts (event-vs-strict agreement is the energy-determinism oracle's job,
# run by `make crosscheck`):
#
#  1. ptsim -json with -engine-workers 1 vs 4: the activity counters and
#     the energy breakdown derived from them must be bit-identical (the
#     parallel engine may not perturb a single counter), the per-unit
#     energies must sum exactly to the reported total, and the total must
#     be nonzero.
#
#  2. ptserve -json with -engine-workers 1 vs 4: identical serving reports
#     (including per-phase prefill/decode energy and mJ/token) up to the
#     host wall-time field.
#
# Wired into `make check` via the energy-smoke target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "energy-smoke: building ptsim and ptserve"
go build -o "$tmp/ptsim" ./cmd/ptsim
go build -o "$tmp/ptserve" ./cmd/ptserve

echo "energy-smoke: ptsim gemm-64, serial vs 4 engine workers"
"$tmp/ptsim" -model gemm -n 64 -small -json >"$tmp/serial.json" 2>/dev/null
"$tmp/ptsim" -model gemm -n 64 -small -json -engine-workers 4 \
  >"$tmp/parallel.json" 2>/dev/null

echo "energy-smoke: ptserve decoder-tiny, serial vs 4 engine workers"
"$tmp/ptserve" -model decoder-tiny -small -requests 3 -prompt 8 -gen 4 \
  -rate 200000 -max-batch 2 -kv-block 16 -seed 1 -json >"$tmp/serve1.json"
"$tmp/ptserve" -model decoder-tiny -small -requests 3 -prompt 8 -gen 4 \
  -rate 200000 -max-batch 2 -kv-block 16 -seed 1 -engine-workers 4 \
  -json >"$tmp/serve4.json"

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

def check_pair(a, b, what):
    for key in ("activity", "energy"):
        if a.get(key) != b.get(key):
            fail(f"{what}: {key} sections differ:\n{a.get(key)}\nvs\n{b.get(key)}")

serial, parallel = load("serial.json"), load("parallel.json")
check_energy(serial, "ptsim serial")
check_energy(parallel, "ptsim workers=4")
check_pair(serial, parallel, "ptsim serial vs workers=4")
if not parallel.get("parallel_rounds"):
    fail("ptsim workers=4: parallel_rounds section missing")

s1, s4 = load("serve1.json"), load("serve4.json")
for rep, what in ((s1, "ptserve serial"), (s4, "ptserve workers=4")):
    if rep.get("total_energy_mj", 0) <= 0:
        fail(f"{what}: total_energy_mj missing or zero")
    if rep.get("energy_per_token_mj", 0) <= 0:
        fail(f"{what}: energy_per_token_mj missing or zero")
    pf = rep.get("prefill_energy") or fail(f"{what}: prefill_energy missing")
    dc = rep.get("decode_energy") or fail(f"{what}: decode_energy missing")
    if pf["total_mj"] + dc["total_mj"] != rep["total_energy_mj"]:
        fail(f"{what}: phase energies do not sum to the total")
s1.pop("wall_ms", None)
s4.pop("wall_ms", None)
if s1 != s4:
    fail("ptserve reports differ between serial and workers=4")

print("energy-smoke: ptsim serial == workers=4; "
      f"ptserve serial == workers=4 ({s1['energy_per_token_mj']:.4f} mJ/token)")
EOF

echo "energy-smoke: OK"
