# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race fuzz loc bench bench-batch bench-incremental metrics-smoke faultsim crashsim shardsim federationsim repro examples libdoc outputs clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every native fuzz target for a short fixed budget.  Plain `go test`
# already replays their checked-in seed corpora; this explores further.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRunBatch$$' -fuzztime 10s ./internal/expr/
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalMapOrder$$' -fuzztime 10s ./internal/repo/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanMatchesInterpreter$$' -fuzztime 10s ./internal/core/sheet/
	$(GO) test -run '^$$' -fuzz '^FuzzEvalColsMatchesEstimate$$' -fuzztime 10s ./internal/core/model/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/units/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFormat$$' -fuzztime 10s ./internal/units/
	$(GO) test -run '^$$' -fuzz '^FuzzSheetPageMatchesOracle$$' -fuzztime 10s ./internal/web/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepPageMatchesOracle$$' -fuzztime 10s ./internal/web/

# Non-test Go lines per package, largest first, then the total.
# internal/faultnet is imported only by tests: it is printed after the
# total as test infrastructure and not counted in it.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -z "$$files" ] || printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | sort -k1,1nr | awk '$$2 ~ /\/internal\/faultnet$$/ { infra = $$0; next } { print; n += $$1 } \
		END { printf "%7d total\n", n; if (infra != "") print infra " (test infrastructure, not in the total)" }'

bench:
	$(GO) test -bench=. -benchmem ./...

# The X21 batch-sweep regression gate: one in-process 10k-point sweep
# through the scalar and columnar engines, failing if columnar is no
# longer faster (see EXPERIMENTS.md).
bench-batch:
	POWERPLAY_BENCH_BATCH=1 $(GO) test -run 'TestBatchThroughputSmoke' -v .

# The X22 incremental-Play regression gate: a one-binding edit on the
# InfoPad sheet must re-evaluate at most 20% of the plan's slots and
# beat a full (recompiling) Play by at least 5x, bit-identically (see
# EXPERIMENTS.md).
bench-incremental:
	POWERPLAY_BENCH_INCREMENTAL=1 $(GO) test -run 'TestIncrementalPlaySmoke' -v .

# The observability smoke: drive real traffic through an in-process
# site and assert the /metrics contract — every instrument family
# present, histogram buckets cumulative, counters monotonic — under the
# race detector.
metrics-smoke:
	$(GO) test -race -run 'TestMetricsSmoke' ./internal/web/

# The fault-injection suite: the faultnet harness plus the remote
# resilience and hardening tests, raced and repeated to shake out
# timing-dependent retry/breaker/cancellation bugs.
faultsim:
	$(GO) test -race -count=3 ./internal/faultnet/
	$(GO) test -race -count=3 -run 'TestRemote|TestBreaker|TestMount|TestRefresh|TestSheetDegrades|TestSweepClientDisconnect|TestRecoverMiddleware|TestBodyLimit|TestRequestTimeout' ./internal/web/
	$(GO) test -race -count=3 -run 'TestServeGracefulShutdown' ./cmd/powerplay/

# The crash simulator: build the real binary, kill -9 it repeatedly —
# mid-write and at quiescence — over one data directory, and assert
# every reboot recovers a consistent, byte-identical site from the
# journal (see DESIGN.md "Durability").
crashsim:
	POWERPLAY_CRASHSIM=1 $(GO) test -run 'TestCrashSim' -v ./cmd/powerplay/

# The shard fleet simulator: build the real binary, run a router over
# two shard-aware backends, and kill -9 / restart one backend under
# live traffic — the breaker must open (fast 503s for the dead shard,
# the survivor unperturbed) and the restarted shard must rejoin
# serving its partition byte-identically (see DESIGN.md "Sharding").
shardsim:
	POWERPLAY_SHARDSIM=1 $(GO) test -run 'TestShardSim' -v ./cmd/powerplay/

# The federation simulator: build the real binary, run a publisher and
# a subscribed mirror, kill -9 the mirror mid-sync and the publisher
# outright — the restarted mirror must serve every mirrored model from
# its journal, converge on missed publications, and keep serving with
# the publisher dead (see DESIGN.md "Federation").
federationsim:
	POWERPLAY_FEDSIM=1 $(GO) test -run 'TestFedSim' -v ./cmd/powerplay/

# Regenerate every figure, table and ablation from the paper.
repro:
	$(GO) run ./cmd/repro

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vqdecoder
	$(GO) run ./examples/infopad
	$(GO) run ./examples/sorting
	$(GO) run ./examples/remotelib
	$(GO) run ./examples/archscale

# Regenerate the library reference.
libdoc:
	$(GO) run ./cmd/ppcli libdoc > LIBRARY.md

# The final-deliverable logs.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
