# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-smoke cover fuzz fuzz-smoke lint lint-fast e2e e2e-smoke experiments examples clean

all: build lint test

build:
	go build ./...

# go vet plus the project lint suite (cmd/mldcslint): epsilon policy,
# float equality, angle normalization, obs-sink, dropped skyline errors,
# and the concurrency/hot-path analyzers (scratchescape, snapshotmut,
# atomicfield, hotpathalloc). See docs/STATIC_ANALYSIS.md.
lint:
	go vet ./...
	go run ./cmd/mldcslint ./...

# lint-fast: vet + mldcslint on only the packages whose Go files changed
# since the merge-base with origin/main (falling back to HEAD~1; full run
# when no base exists). Cross-package facts still load the dependencies
# of the changed packages, so analyzer results match the full run for
# those packages. Developer loop only — CI runs the full `make lint`.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null || git rev-parse HEAD~1 2>/dev/null || true); \
	if [ -z "$$base" ]; then echo "lint-fast: no diff base; running full lint" >&2; $(MAKE) lint; exit $$?; fi; \
	files=$$( (git diff --name-only "$$base" -- '*.go'; git ls-files --others --exclude-standard -- '*.go') | grep -v '/testdata/' | sort -u ); \
	dirs=$$(for f in $$files; do [ -f "$$f" ] && dirname "$$f"; done | sort -u | sed 's|^|./|'); \
	if [ -z "$$dirs" ]; then echo "lint-fast: no changed Go packages since $$base"; exit 0; fi; \
	echo "lint-fast: $$dirs"; \
	go vet $$dirs && go run ./cmd/mldcslint $$dirs

test:
	go test ./...

race:
	go test -race ./...

# The go test microbenchmarks. The repo's end-to-end benchmark — engine
# passes checked against the sequential oracle, kinetic ticks and the
# mldcsd service, with per-layer timings — is `bash perfbench/run.sh`
# (see perfbench/README.md and BENCHMARK.json).
bench:
	go test -bench=. -benchmem ./...

# CI smoke: every skyline, engine, and obs microbenchmark compiles and
# runs once (-benchtime=1x; build + sanity, not timing), and the
# allocation regression tests hold under the race detector.
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./internal/skyline/ ./internal/engine/ ./internal/obs/
	go test -race -run='Allocs' -count=1 ./internal/skyline/ ./internal/engine/

cover:
	go test -coverprofile=cover.out ./internal/... .
	go tool cover -func=cover.out | tail -1

fuzz:
	go test -fuzz=FuzzSkylineInvariants -fuzztime=60s ./internal/skyline/
	go test -fuzz=FuzzMergeAgainstNaive -fuzztime=60s ./internal/skyline/
	go test -fuzz=FuzzKineticRepair -fuzztime=60s ./internal/skyline/
	go test -fuzz=FuzzSelectorInvariants -fuzztime=60s ./internal/forwarding/
	go test -fuzz=FuzzEngineVsSequential -fuzztime=60s ./internal/engine/

# Short fuzz pass over every target — the CI smoke step.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzSkylineInvariants -fuzztime=10s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzMergeAgainstNaive -fuzztime=10s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzKineticRepair -fuzztime=10s ./internal/skyline/
	go test -run='^$$' -fuzz=FuzzSelectorInvariants -fuzztime=10s ./internal/forwarding/
	go test -run='^$$' -fuzz=FuzzEngineVsSequential -fuzztime=10s ./internal/engine/

# Chaos e2e harness for the mldcsd service: seeded action streams against
# a live server, drained and checked byte-for-byte against the sequential
# oracle, plus the banked-regression-seed replay and the mutation
# sensitivity gate. See docs/TESTING.md ("Chaos e2e harness").
e2e:
	scripts/e2e/harness.sh full

# CI budget: fewer/shorter fresh seeds, same bank replay and mutation gate.
e2e-smoke:
	scripts/e2e/harness.sh smoke

# Full paper reproduction (the 200-replication suite) + extensions.
experiments:
	go run ./cmd/mldcsim -scenario scenarios/paper.json -report report/paper
	go run ./cmd/mldcsim -scenario scenarios/extensions.json -report report/extensions

examples:
	go run ./examples/quickstart
	go run ./examples/heterogeneous
	go run ./examples/broadcaststorm
	go run ./examples/routediscovery
	go run ./examples/backbone
	go run ./examples/dynamictopology
	go run ./examples/skylineviz .

clean:
	rm -f cover.out
	rm -rf report
