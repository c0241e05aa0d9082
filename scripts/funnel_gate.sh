#!/usr/bin/env bash
# funnel-gate: one place builds a TLS stack. Fails if non-test Go outside
# the engine and fabric packages themselves, the funnel file
# (internal/core/stack.go) and the bench/ module assembles an engine by
# hand with togsim.NewEngine( or topo.NewFabric(, or if non-test Go
# outside internal/togsim/, the funnel file and bench/ takes the standard
# stack with togsim.NewStandard( — every run goes through core.NewStack
# instead (exp/sparseval.go's togsim.NewFlatLatency is the one deliberate
# exception: a flat-latency memory the funnel does not build). It also
# fails if non-test Go outside internal/service/ and bench/ resolves an
# NPU preset or a topology itself with modelzoo.NPUConfig( or
# modelzoo.Topology( — every command resolves its flags through
# service.JobSpec.Resolve, the one resolver. And it fails if non-test Go
# other than internal/service/board.go builds a job queue with
# sched.NewFairQueue — ptsimd and the fleet coordinator share the one job
# lifecycle, service.Board. And it fails if non-test Go under cmd/ builds
# an NPU preset (npu.TPUv3Config(, npu.SmallConfig() or names an
# interconnect (togsim.SimpleNet, togsim.CycleNet) itself, or declares one
# of the shared flags (-model, -topology, -parallel, -small, -net,
# -max-cycles, -cache-dir, -json, -trace and the daemon flags) — commands
# bind those through internal/cli, which resolves the machine with
# service.ResolveMachine. And it fails if non-test Go outside internal/tog/
# and the engine's resumable interpreter (internal/togsim/context.go) has
# a `case tog.LoopBegin` — every other TOG pass expands loops through
# tog.Walk, the one walker, over the one matcher (*TOG).MatchEnd. And it
# fails if non-test Go outside internal/core/ and internal/crosscheck/
# calls Stack.Place — one compiled artifact runs through one run body,
# core.Simulator.SimulateTLS (the crosscheck exception is the strict-tick
# topology oracle, which sets Engine.StrictTick). And it fails if non-test
# Go outside internal/service/ and bench/ calls serve.Run( — a serving run
# is a service.JobSpec with Serve set, run through Service.Simulate, the
# one front door (the serve oracle included). Also prints the non-test
# Go line count outside bench/, so "the code got smaller" is a number.
# Wired into `make check`.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^bench/')

hits=$(echo "$files" |
  grep -v -e '^internal/togsim/' -e '^internal/topo/' -e '^internal/core/stack\.go$' |
  xargs grep -n -e 'togsim\.NewEngine(' -e 'topo\.NewFabric(' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — hand-assembled engine stacks (use core.NewStack):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/togsim/' -e '^internal/core/stack\.go$' |
  xargs grep -n -e 'togsim\.NewStandard(' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — hand-built standard stacks (use core.NewStack):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/service/' |
  xargs grep -n -e 'modelzoo\.NPUConfig(' -e 'modelzoo\.Topology(' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — spec resolution outside the service (use service.JobSpec.Resolve):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/service/board\.go$' |
  xargs grep -n -e 'sched\.NewFairQueue[[(]' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — a job queue outside the board (use service.Board):"
  echo "$hits"
  exit 1
fi

shared='model|topology|parallel|small|net|max-cycles|cache-dir|json|trace|addr|workers|queue|tenant-queue|tenant-weights'
hits=$(echo "$files" | grep '^cmd/' |
  xargs grep -nE -e 'npu\.(TPUv3Config|SmallConfig)\(' -e 'togsim\.(SimpleNet|CycleNet)\b' \
    -e "\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)(Var)?\(([^\"]*, )?\"($shared)\"" || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — a command binds a shared flag or builds its machine itself (use internal/cli):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/tog/' -e '^internal/togsim/context\.go$' |
  xargs grep -nE -e 'case [^:]*\btog\.LoopBegin\b' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — a TOG loop interpreter outside internal/tog (use tog.Walk):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/core/' -e '^internal/crosscheck/' |
  xargs grep -nE -e '\.Place\(' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — a second run body for a compiled artifact (use core.Simulator.SimulateTLS):"
  echo "$hits"
  exit 1
fi

hits=$(echo "$files" |
  grep -v -e '^internal/service/' |
  xargs grep -n -e 'serve\.Run(' || true)
if [ -n "$hits" ]; then
  echo "funnel-gate: FAIL — a serving run outside the service (submit a service.JobSpec with Serve set):"
  echo "$hits"
  exit 1
fi

echo "funnel-gate: OK — $(echo "$files" | xargs cat | wc -l) non-test Go lines outside bench/"
