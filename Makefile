# Convenience targets for the xeonomp reproduction.

GO ?= go

.PHONY: build test test-short race race-conc bench bench-cache bench-gate check ci check-golden update-golden figures figures-cached lmbench ablations profile fmt vet lint lint-conc lint-hot lint-fix lint-fix-clean pgo-fresh perfbench-check server-smoke shard-smoke clean

build:
	$(GO) build ./...

test-short:
	$(GO) test -short ./...

# Full suite, including the integration shape studies (~5 minutes).
test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# Full (non-short) race pass over the concurrency-heavy packages the
# goleak/lockorder analyzers police statically; CI runs this leg in its
# test matrix. The race detector turns the full core suite's ~2 minutes
# into ~25 (the integration shape studies are memory-access-heavy, the
# detector's worst case), so the default 10m per-package test timeout
# is not enough.
race-conc:
	$(GO) test -race -timeout 40m ./internal/server/... ./internal/core/...

# One benchmark per paper table/figure; XEONOMP_BENCH_SCALE overrides the
# per-iteration workload scale. -run '^$$' keeps the unit-test suite from
# re-running before the benchmarks do.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x

# Static analysis: go vet plus the repo's own analyzers (cmd/xeonlint —
# nondeterminism taint, dimension inference with unit safety, dropped
# errors, context flow, goroutine leaks, lock ordering, counter/golden
# parity, and the profile-guided hot tier: hotloop, benchparity).
# Depends on build so vet and xeonlint share one warm build cache; -v
# prints per-analyzer wall time so lint-job runtime regressions show up
# in CI logs.
lint: build
	$(GO) vet ./...
	$(GO) run ./cmd/xeonlint -v ./...

# Just the concurrency suite — the heavier interprocedural passes — for a
# quick pre-push check of server/engine changes.
lint-conc: build
	$(GO) run ./cmd/xeonlint -v -only ctxflow,goleak,lockorder ./...

# Just the profile-guided performance tier, for hot-path work.
lint-hot: build
	$(GO) run ./cmd/xeonlint -v -only hot ./...

# Assert the checked-in CPU profile still matches the source: it must
# decode, resolve onto module functions, and keep the benchmarked engine
# packages in its hot set. Regenerate with `make profile` after renaming
# hot functions.
pgo-fresh: build
	./scripts/pgo-freshness.sh

# Apply every machine-applicable fix xeonlint proposes (magic-literal →
# units.* rewrites, explicit `_ =` error drops), in place.
lint-fix: build
	$(GO) run ./cmd/xeonlint -fix ./...

# Fail if xeonlint still has fixes pending — the CI guard that keeps the
# tree converged under `make lint-fix`. Prints the unified diff.
lint-fix-clean: build
	$(GO) run ./cmd/xeonlint -diff ./...

# The full gate: build, lint, formatting, and the race-enabled test suite.
check: lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -race ./...

# GOLDEN_SCALE is the reduced instruction-budget scale the checked-in
# testdata/golden artifacts were generated at; -check refuses to compare
# across scales, so the two targets below must agree.
GOLDEN_SCALE := 0.1

# The run cache under .xeonchar-cache is keyed by a hash of the Go sources
# (tracked and untracked), so any code change starts from a cold cache — a
# stale cached cell can never mask real metric drift. CI persists the same
# directory with the same keying (see .github/workflows/ci.yml).
SRC_HASH := $(shell git ls-files -co --exclude-standard -- '*.go' go.mod | xargs sha256sum 2>/dev/null | sha256sum | cut -c1-16)

# Mirrors .github/workflows/ci.yml step for step, so contributors can
# reproduce a CI failure locally with a bare `make ci`.
ci:
	$(MAKE) lint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) test -race -short ./...
	$(MAKE) check-golden
	$(MAKE) bench-gate

# The paper-fidelity gate alone: rerun every study at the golden scale and
# diff against the checked-in artifacts with their tolerance bands. The
# metrics snapshot (cache hit rates, cell latencies, worker utilization)
# lands in golden-metrics.json; CI uploads it as a build artifact.
check-golden:
	$(GO) run ./cmd/xeonchar -check testdata/golden -scale $(GOLDEN_SCALE) \
		-cache-dir .xeonchar-cache/$(SRC_HASH) -progress 30s \
		-metrics-out golden-metrics.json

# Regenerate testdata/golden after an *intentional* metric change; commit
# the diff so review sees exactly which paper numbers moved.
update-golden:
	$(GO) run ./cmd/xeonchar -update-golden -scale $(GOLDEN_SCALE) \
		-cache-dir .xeonchar-cache/$(SRC_HASH) -progress 30s

# Cold-vs-warm study time through the run cache (see internal/runcache).
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkStudyCache(Cold|Warm)' -benchtime=3x -benchmem

# Engine speed gate (see PERFORMANCE.md): BenchmarkCell's six CG/EP cells
# on HEAD's first parent and on the working tree, measured on this host in
# this run; a >20% drop in total cells/s against the parent fails.
bench-gate:
	./scripts/bench-gate.sh

# Vet and self-test the benchmark harness under _perfbench/. It is its
# own module, so `go build ./...` never compiles it: a change to the
# core/api surface it drives would otherwise break only when the
# benchmark runs.
perfbench-check:
	cd _perfbench && $(GO) vet . && $(GO) test .

# End-to-end smoke gate for the experiment server: build cmd/xeond and
# cmd/xeonctl, boot the daemon on loopback, run the single-program study
# over HTTP at the golden scale, byte-compare the served artifacts
# against testdata/golden, rerun it warm, and assert the /metrics cache
# counter covered every cell. Mirrors the server-smoke CI job.
server-smoke:
	GOLDEN_SCALE=$(GOLDEN_SCALE) bash scripts/server-smoke.sh

# End-to-end smoke gate for sharded execution: two worker daemons plus a
# sharding frontend serve the golden-scale study byte-identically, both
# workers receive cells, and a mid-study worker kill fails over to the
# survivor. Mirrors the shard-smoke CI job.
shard-smoke:
	GOLDEN_SCALE=$(GOLDEN_SCALE) bash scripts/shard-smoke.sh

# Regenerate every table and figure at full scale (~25 minutes cold; a
# warm rerun against the same cache directory is mostly lookups).
figures:
	$(GO) run ./cmd/xeonchar -all -scale 1.0

figures-cached:
	$(GO) run ./cmd/xeonchar -all -scale 1.0 -cache-dir .xeonchar-cache -journal .xeonchar-cache/run.jsonl -resume

# One observed full pass at reduced scale: CPU profile with per-cell
# pprof labels (slice with `go tool pprof -tagfocus benchmark=CG
# cpu.pprof`), a Chrome trace of study/cell spans (load trace.json in
# chrome://tracing or Perfetto), and the metric registry snapshot.
profile:
	$(GO) run ./cmd/xeonchar -all -scale 0.1 \
		-cpuprofile cpu.pprof -trace-out trace.json -metrics-out metrics.json

lmbench:
	$(GO) run ./cmd/lmbench

ablations:
	$(GO) run ./cmd/sweep -ablation all

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
