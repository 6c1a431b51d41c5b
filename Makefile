# Build / test / lint entry points; CI runs the same targets.

GO ?= go

.PHONY: all build test perfbench-test bench-align race lint vet fmt-check cover bench benchdiff profile clean

all: build test lint

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package so
# inter-test ordering dependencies cannot creep in; -count=1 defeats result
# caching, which would otherwise skip the reshuffled run.
test:
	$(GO) test -shuffle=on -count=1 ./...

# perfbench is a module of its own, so the root ./... never reaches it;
# its tests pin the traced replay (including its own Bellman-Ford scratch
# use) against SnapshotInto and RunServe.
perfbench-test:
	cd perfbench && $(GO) test -count=1 ./...

# bench-align builds perfbench with the environment perfbench/run.sh sets
# and prints where the linker put its calibration reference loop. The
# reference runs ~15-20% faster at 32 than at 0 mod 64, and every scaled
# figure moves with it, so compare this value between two commits before
# comparing their perfbench runs.
bench-align:
	@out="$(CURDIR)/.bench_build"; mkdir -p "$$out/gocache" "$$out/gopath" "$$out/tmp" && \
	(cd perfbench && GOCACHE="$$out/gocache" GOPATH="$$out/gopath" GOTMPDIR="$$out/tmp" TMPDIR="$$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off $(GO) build -o "$$out/perfbench" .) && \
	addr="$$($(GO) tool nm "$$out/perfbench" | awk '$$3 == "main.(*calibrator).run" { print $$1 }')" && \
	test -n "$$addr" && echo "main.(*calibrator).run at 0x$$addr: $$((0x$$addr % 64)) mod 64"

# race covers the whole module; the parallel sweep engine (internal/runner
# and its internal/qntn call sites) and the event-driven/stepped equivalence
# suite (oracle_equiv_test.go) are the parts this target exists to gate.
race:
	$(GO) test -race -shuffle=on -count=1 ./...

# cover runs the suite under the coverage profiler, prints the per-package
# percentages as they complete and the module total at the end, and leaves
# coverage.out for go tool cover -html or the CI artifact.
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1

# lint runs the project invariant checkers (unitsuffix, detrand, probrange,
# errcheckclose, hotalloc, poolsafe, atomicmix — the latter backed by the
# cross-package facts engine) plus go vet; exits nonzero on any finding.
lint:
	$(GO) run ./cmd/qntnlint ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the files, when any Go file in the repository
# (perfbench included) differs from gofmt's formatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needs to reformat:"; echo "$$out"; exit 1; fi

# bench runs the sweep benchmarks once per worker count plus the hot-path
# benchmarks (topology snapshot, routing, coverage) and writes the
# machine-readable report — timings, allocs/op, parallel speedups — to
# BENCH_sweep.json.
bench:
	$(GO) test -bench='Sweep|Snapshot|Routes|CoverageHour|CoverageDay|WindowScan|Walker|Qntnlint|ServeDaemon|ServeProtocol' -benchtime=1x -benchmem -run '^$$' ./internal/qntn -args -benchjson=$(CURDIR)/BENCH_sweep.json
	@cat BENCH_sweep.json

# benchdiff compares a fresh bench run against the committed baseline
# (report-only; never fails).
benchdiff:
	$(GO) test -bench='Sweep|Snapshot|Routes|CoverageHour|CoverageDay|WindowScan|Walker|Qntnlint|ServeDaemon|ServeProtocol' -benchtime=1x -benchmem -run '^$$' ./internal/qntn -args -benchjson=$(CURDIR)/BENCH_new.json
	$(GO) run ./cmd/benchdiff BENCH_sweep.json BENCH_new.json

# profile runs a quick full-figure workload under the CPU and heap
# profilers and prints the top CPU consumers. Explore interactively with:
#   go tool pprof profiles/qntnsim profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) build -o profiles/qntnsim ./cmd/qntnsim
	./profiles/qntnsim -quick -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof fig6 > /dev/null
	$(GO) tool pprof -top -nodecount 15 profiles/qntnsim profiles/cpu.pprof

clean:
	$(GO) clean ./...
	rm -rf profiles BENCH_new.json coverage.out
