#!/usr/bin/env bash
# topo-smoke: end-to-end check of the topology layer. A tensor-parallel
# decoder-tiny decode step over two packages (ring all_reduce per layer)
# must:
#
#  1. Move nonzero link traffic — the collectives exchange shards across
#     the chiplet link, so link_flits and remote bytes cannot be zero.
#
#  2. Report an exact breakdown: per-package collective cycles, regions,
#     and link flits sum to the topology roll-up, and the per-package
#     energies sum (in package order) bitwise to the topology total.
#
# Wired into `make check` via the topo-smoke target.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "topo-smoke: building ptsim"
go build -o "$tmp/ptsim" ./cmd/ptsim

echo "topo-smoke: decoder-tiny tensor-parallel on pkg2"
"$tmp/ptsim" -model decoder-tiny -ctx 8 -small -topology pkg2 -parallel tensor \
  -json >"$tmp/report.json" 2>/dev/null

python3 - "$tmp" <<'EOF'
import json, os, sys
tmp = sys.argv[1]

def fail(msg):
    sys.exit(f"topo-smoke: FAIL: {msg}")

report = json.load(open(os.path.join(tmp, "report.json")))

topo = report.get("topology") or fail("no topology section in the report")
if topo.get("packages") != 2 or topo.get("name") != "pkg2":
    fail(f"expected a 2-package pkg2 topology, got {topo.get('name')!r} x{topo.get('packages')}")
pkgs = topo.get("per_package") or fail("no per-package breakdown")
if len(pkgs) != 2:
    fail(f"expected 2 per-package entries, got {len(pkgs)}")

# Nonzero collective link traffic.
if topo["link_flits"] <= 0:
    fail("tensor-parallel run moved zero link flits")
if sum(p["remote_bytes"] for p in pkgs) <= 0:
    fail("ring collectives transferred zero remote bytes")

# Exact sums: integer counters add up to the roll-up, and the topology
# energy is defined as the in-order sum of per-package energies, so a
# sequential float sum must reproduce it bitwise.
for key in ("collective_cycles", "collectives", "link_flits"):
    got = sum(p[key] for p in pkgs)
    if got != topo[key]:
        fail(f"per-package {key} sum {got} != topology {key} {topo[key]}")
esum = 0.0
for p in pkgs:
    esum += p.get("energy_mj", 0.0)
if esum != topo.get("energy_mj", 0.0):
    fail(f"per-package energies sum to {esum!r}, topology energy_mj is {topo.get('energy_mj')!r}")
if topo.get("energy_mj", 0.0) <= 0:
    fail("topology energy must be positive")

# One rank per package, each running its compiled collective regions.
jobs = report.get("jobs") or fail("no jobs section")
if len(jobs) != 2:
    fail(f"expected 2 placed ranks, got {len(jobs)}")
for j in jobs:
    if j.get("collectives", 0) <= 0 or j.get("collective_cycles", 0) <= 0:
        fail(f"rank {j['name']} reports no collective regions: {j}")

print(f"topo-smoke: 2 ranks, {topo['link_flits']} link flits, "
      f"collective {topo['collective_cycles']} cycles over {topo['collectives']} regions, "
      f"{topo['energy_mj']:.3f} mJ")
EOF

echo "topo-smoke: OK"
