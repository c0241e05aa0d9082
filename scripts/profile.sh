#!/usr/bin/env bash
# profile: CPU-profile the untraced serial engine on one model, or the cold
# compiler, and print where the host time goes. Runs the matching root
# benchmark (bench_test.go) with -cpuprofile and prints `go tool pprof -top`
# under a host stamp, so a claim about a hot spot is one command away from
# a table:
#
#   make profile MODEL=resnet18 CORES=1        # or scripts/profile.sh resnet18 1
#   make profile MODEL=resnet18-cn             # or scripts/profile.sh resnet18-cn
#   make profile MODEL=compile                 # or scripts/profile.sh compile
#   make profile MODEL=zoo                     # or scripts/profile.sh zoo
#
# MODEL is resnet18 or bert-base (BenchmarkEngine<Model>C<n>Serial, CORES
# 1, 4 or 8), resnet18-cn (BenchmarkEngineResnet18C1CN: one core over the
# cycle-accurate CN crossbar; ignores CORES), compile
# (BenchmarkCompileParallel: a cold resnet18 compile on TPUv3) or zoo
# (BenchmarkCompileZoo: the eight cold compiles of the benchmark's
# compile.zoo-cold workload); the two compiler profiles ignore CORES, and
# also write an allocation profile and print its alloc_space and
# alloc_objects tables (bytes show what fills the heap, object counts what
# keeps mallocgc busy: a small per-instruction slice is invisible in bytes
# yet can be a third of all allocations). RUNS (default 3) is the -benchtime
# iteration count and ROWS (default 15) the table length. The profiles, the
# test binary pprof needs to symbolize them, and the tables stay in
# profile/ (git-ignored) for `go tool pprof -list` afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

model=${1:-${MODEL:-resnet18}}
cores=${2:-${CORES:-1}}
runs=${RUNS:-3}
rows=${ROWS:-15}

case "$model" in
    resnet18) name=Resnet18 ;;
    bert-base) name=BertBase ;;
    resnet18-cn) bench=BenchmarkEngineResnet18C1CN ;;
    compile) bench=BenchmarkCompileParallel ;;
    zoo) bench=BenchmarkCompileZoo ;;
    *) echo "profile: unknown MODEL '$model' (resnet18, bert-base, resnet18-cn, compile, zoo)" >&2; exit 2 ;;
esac
dir=profile
mkdir -p "$dir"
memflags=()
if [ "$model" = compile ] || [ "$model" = zoo ]; then
    base="$dir/$model"
    memflags=(-test.memprofile "$base.mem.prof")
elif [ "$model" = resnet18-cn ]; then
    base="$dir/$model"
else
    case "$cores" in
        1|4|8) ;;
        *) echo "profile: unknown CORES '$cores' (1, 4, 8)" >&2; exit 2 ;;
    esac
    bench="BenchmarkEngine${name}C${cores}Serial"
    base="$dir/$model-c$cores"
fi

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit+uncommitted"
fi
stamp="host: $(getconf _NPROCESSORS_ONLN) CPUs, GOMAXPROCS=${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}, $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH), commit $commit"

go test -c -o "$base.test" .
echo "profile: $bench x$runs"
"./$base.test" -test.run '^$' -test.bench "^${bench}\$" -test.benchtime "${runs}x" \
    -test.timeout 3600s -test.cpuprofile "$base.prof" "${memflags[@]}" | grep '^Benchmark'

{
    echo "$stamp"
    go tool pprof -top -nodecount="$rows" "$base.test" "$base.prof" 2>/dev/null | sed -n '/^Duration:/p;/flat%/,$p'
    if [ ${#memflags[@]} -gt 0 ]; then
        echo "allocated bytes (alloc_space):"
        go tool pprof -top -sample_index=alloc_space -nodecount="$rows" "$base.test" "$base.mem.prof" 2>/dev/null | sed -n '/flat%/,$p'
        echo "allocated objects (alloc_objects):"
        go tool pprof -top -sample_index=alloc_objects -nodecount="$rows" "$base.test" "$base.mem.prof" 2>/dev/null | sed -n '/flat%/,$p'
    fi
} | tee "$base.top.txt"
echo "profile: wrote $base.prof (binary $base.test, table $base.top.txt)"
