# Single entry point for CI and builders: `make check` is the tier-1 gate.
GO ?= go
# Worker-pool size for the batch-parallel sweep targets; every artifact is
# byte-identical at any -j, so the default is simply all host cores.
NPROC ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: check fmt vet build test race analyze golden figures bench-sim bench-sim-smoke fuzz-smoke loc

check: fmt vet build test race analyze bench-sim-smoke fuzz-smoke

# gofmt -l prints offending files; any output is a failure.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The timeout is the lid on the thousand-rank worlds (internal/mpi's 1024-
# and 2048-rank on-demand rings, the O(n)-startup-events assertion): they
# only stay fast because per-rank state is O(live connections) and the
# startup barrier is park/broadcast — a regression in either shows up here
# as a timeout, not a slow drift. -failfast starts no test after the first
# failure, in any package: a leaked lock (TestEventLogReleasesItsLock,
# TestTrackerReleasesItsLock) then fails the run in milliseconds, where the
# later tests that block on that lock would wait out the whole timeout. The
# price is that a red run reports only what failed before it stopped; `go
# test ./...` without the flag lists every failure.
test:
	$(GO) test -failfast -timeout 300s ./...

# internal/tcpvia is sockets and one owner goroutine per node: its
# connection goroutines hand every frame to the owner, and three passes of
# its tests (the crossing dials, the manager stress) under -race are the
# check that nothing else touches a node's state. internal/mpi and
# internal/core are single-threaded by design, so -race there proves the
# simulated stack never silently grows a second runnable goroutine (the
# one-runnable discipline the determinism rule encodes). internal/sweep is
# the batch runner — the one other package with real concurrency — so its
# worker pool and progress tracker run under -race too.
race:
	$(GO) test -race -count=3 ./internal/tcpvia/...
	$(GO) test -race ./internal/mpi/... ./internal/core/... ./internal/sweep/...

# The invariant analyzers also run inside `go test` (the selfcheck); this
# target is the direct, human-readable form. The wall-time budget keeps the
# whole-program interprocedural pass (the call graph and hotalloc's
# reachability walk over it) honest: load dominates, so analysis must stay
# cheap enough to run on every `make check`.
ANALYZE_BUDGET ?= 120
analyze:
	@start=$$(date +%s); \
	$(GO) run ./cmd/viampi-vet -root . || exit $$?; \
	end=$$(date +%s); took=$$((end - start)); \
	if [ $$took -gt $(ANALYZE_BUDGET) ]; then \
		echo "make analyze: took $${took}s, budget $(ANALYZE_BUDGET)s — the analyzer pass is too slow for tier-1"; exit 1; \
	fi

# Virtual time is pinned by three golden sets that `test` regenerates and
# compares: every experiment's quick-mode table in every rendered form
# (internal/bench/testdata/golden), the dual-run digests and capture-bundle
# hashes (internal/analysis/testdata/digests.golden), and mpirun-sim's full
# report of CG.S on 8 ranks (testdata/mpirun-sim.golden). A change that
# moves virtual time shows up as a golden diff: regenerate here, review the
# diff, commit it with the change. The fourth golden is not virtual time but
# is regenerated the same way: the set of bodies hotalloc derives from the
# policy's roots (internal/analysis/testdata/hotset.golden) — a body that
# became hot, or stopped being, is a line of its diff — and so is viampi-vet's
# rule documentation (internal/analysis/testdata/rules.golden).
golden:
	$(GO) test ./internal/bench -run 'TestGolden' -update
	$(GO) test ./internal/analysis -run 'DualRunDeterminism|TestHotSetGolden|TestRuleDocGolden' -update
	$(GO) test . -run 'TestToolMpirunSim' -update

figures:
	$(GO) run ./cmd/figures -all -quick -j $(NPROC)

# Lines per package, code and tests apart (`wc -l`; testdata/ left out): the
# one command ROADMAP's size tables, CHANGES.md and a re-anchor quote.
loc:
	@printf '%-24s %9s %7s\n' package non-test test; \
	for d in . benchmark cmd/* examples/* internal/* internal/obs/capture; do \
		ls $$d/*.go >/dev/null 2>&1 || continue; \
		code=$$(ls $$d/*.go | grep -v _test.go | xargs cat 2>/dev/null | wc -l); \
		tests=$$(ls $$d/*_test.go 2>/dev/null | xargs cat 2>/dev/null | wc -l); \
		printf '%-24s %9d %7d\n' $$d $$code $$tests; \
	done

# Scheduler-core wall-clock benchmarks: the measurement rail for the
# zero-allocation event loop and message path. 0 allocs/op on BenchmarkSimCore
# and on BenchmarkEagerRoundTrip (one steady-state round trip through the
# whole stack) is an invariant (also enforced statically by the hotalloc
# analyzer); BenchmarkReconnectCycle is the connection path's rail (one
# evict-teardown-reconnect cycle: 0 allocs/op, the VIs are reissued), BenchmarkMeshBoot
# the static mesh's (a 64-rank static-p2p world through Init and Finalize:
# ~2,600 allocs/op, ~40 per rank and next to nothing per connection, because
# the managers reserve slabs at Init and a rank's bootstrap rides recycled
# frames; ~70,000 means a first connection is building its objects one
# allocation at a time again, ~4,000 that every out-of-band message is a new
# frame again. Its B/conn holds a connection to its VIs, channels and channel
# states and its share of the tables, because a pre-posted pool is a count on
# its VI and no table a connection fills is a map: TestFirstConnectAllocs
# pins the bytes of three boots, and TestDescriptorSize, TestChannelSize and
# TestChanStateSize the objects' size classes). Run at
# GOMAXPROCS 1 and 2 because a simulation is one thread of control: a
# ping-pong that is steadily slower at 2 than at 1 means rank switches are
# going through the Go scheduler again. Three runs each, because the first
# run of a process at GOMAXPROCS=2 sometimes reads ~50 % high on its own.
# These are allocation rails; host time end to end is benchmark/'s job.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimCore|BenchmarkEagerRoundTrip|BenchmarkReconnectCycle|BenchmarkMeshBoot' -benchmem -cpu 1,2 -count 3 ./internal/simnet ./

# Millisecond-scale pass over the same benchmarks; part of `make check`. It
# checks that they build and run — its output goes to /dev/null, and a
# benchmark fails only on a run error or, for BenchmarkMeshBoot, a wrong VI
# count — and asserts no allocation figure: the counts are held by the
# Test*Allocs tests (fabric, via, mpi, capture) and the hotalloc rule. One op
# of BenchmarkMeshBoot is a whole 64-rank world, so it runs three, not a
# thousand.
bench-sim-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkSimCore|BenchmarkEagerRoundTrip|BenchmarkReconnectCycle' -benchtime 1000x ./internal/simnet . > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkMeshBoot' -benchtime 3x . > /dev/null

# A few seconds of each native fuzzer on one worker; `test` runs only their
# seeds. FuzzPortDispatch drives the VIA dispatcher and the handshake calls
# against the VI lifecycle and the outstanding-request table's rule,
# FuzzPacketDecode and FuzzMatching mpi's wire decoder and matching queues,
# FuzzReadFrame tcpvia's frame reader, and FuzzCaptureReader the capture
# bundle reader. `-fuzz` takes one package and one target a run, hence five
# runs; an input that fails is written under that package's
# testdata/fuzz/ and fails the target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPortDispatch$$' -fuzztime 5s -parallel 1 ./internal/via
	$(GO) test -run '^$$' -fuzz '^FuzzPacketDecode$$' -fuzztime 5s -parallel 1 ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzMatching$$' -fuzztime 5s -parallel 1 ./internal/mpi
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s -parallel 1 ./internal/tcpvia
	$(GO) test -run '^$$' -fuzz '^FuzzCaptureReader$$' -fuzztime 5s -parallel 1 ./internal/obs/capture
