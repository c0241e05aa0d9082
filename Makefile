GO ?= go

.PHONY: all build fmt funnel-gate vet test golden race check bench profile fuzz-smoke crosscheck cover clean

all: check

build:
	$(GO) build ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Structure gate: engine stacks are assembled only in core.NewStack; also
# prints the non-test Go line count (scripts/funnel_gate.sh).
funnel-gate:
	bash scripts/funnel_gate.sh

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Rewrites every golden file: go test -update on exactly the packages whose
# tests import internal/golden, the package that defines -update (any other
# package rejects the flag).
golden:
	$(GO) test $$($(GO) list -f '{{.ImportPath}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | \
		awk '/ repro\/internal\/golden( |$$)/ {print $$1}') -update

# The experiment suite (internal/exp) simulates full workloads and runs
# well past go test's default 10m per-package budget under the race
# detector, hence the raised -timeout.
race:
	$(GO) test -race -timeout 3600s ./...

# The full gate: everything CI (and the acceptance criteria) require. The
# end-to-end checks of the built commands and daemons are Go tests
# (cmd/e2e), so the ./... test run covers them. The bench/ module is its
# own module, so ./... does not reach it; it is vetted and tested on its
# own because it builds on togsim's Fabric and MemReq.
check:
	$(GO) build ./...
	$(MAKE) fmt
	$(MAKE) funnel-gate
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) test -race -timeout 3600s ./...
	$(GO) -C bench test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) crosscheck

# Bounded coverage-guided fuzzing over every native fuzz target, seeded from
# the checked-in corpora (scripts/fuzz_smoke.sh; FUZZTIME overrides the
# per-target budget).
fuzz-smoke:
	bash scripts/fuzz_smoke.sh

# Cross-simulator differential gate: 200 seeded random workloads through
# every oracle (zero divergences required), the serve-determinism oracle
# (each seeded serving job fresh, probed and on a warmed service whose
# compile cache already holds its shapes, bit-identical), the
# fleet-determinism oracle (1-node vs 3-node sharded fleet,
# bit-identical), then the fault-injection self-tests, which pass only if
# a deliberate fault — a +1-cycle latency perturbation or a corrupted
# fleet-member response — is detected.
crosscheck:
	$(GO) run ./cmd/ptsimcheck -seed 1 -n 200
	$(GO) run ./cmd/ptsimcheck -serve -seed 1
	$(GO) run ./cmd/ptsimcheck -topo -seed 1 -n 200
	$(GO) run ./cmd/ptsimcheck -fleet -seed 1
	@tmp=$$(mktemp -d); \
		$(GO) run ./cmd/ptsimcheck -seed 1 -n 20 -fault -out $$tmp && rm -rf $$tmp
	$(GO) run ./cmd/ptsimcheck -fault-fleet -seed 1

# Coverage summary per package, with hard floors on internal/crosscheck
# and internal/fleet (scripts/cover.sh).
cover:
	bash scripts/cover.sh

# Engine micro-benchmarks, including the event-vs-strict TLS comparison.
bench:
	$(GO) test -run xxx -bench 'BenchmarkTLSEngine' -benchtime 1x .

# CPU profile of the untraced serial engine on one model: runs the matching
# BenchmarkEngine<Model>C<n>Serial with -cpuprofile into profile/ and prints
# `go tool pprof -top` with the host stamp (scripts/profile.sh).
# MODEL=resnet18-cn runs resnet18 on one core over the CN crossbar
# (BenchmarkEngineResnet18C1CN). MODEL=compile
# profiles the cold compiler (BenchmarkCompileParallel) instead, and
# MODEL=zoo the eight cold compiles of compile.zoo-cold
# (BenchmarkCompileZoo), each CPU, allocated bytes and allocated objects.
MODEL ?= resnet18
CORES ?= 1
profile:
	bash scripts/profile.sh $(MODEL) $(CORES)

clean:
	$(GO) clean ./...
