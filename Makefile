# Tier-1 gate: `make check` is what CI and pre-merge runs. It must stay
# green — gofmt, vet, build, the full test suite under the race detector
# (including the cache-purge race hammer), and a short fuzz smoke over the
# text parsers.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race race-hammer obs-smoke trace-smoke fuzz-smoke kernel-smoke chaos-smoke coalesce-smoke replace-smoke precompute-smoke flight-smoke perfbench-test bench bench-smoke bench-rwr bench-resilience bench-coalesce bench-replace bench-precompute bench-flight clean

check: fmt vet build race race-hammer trace-smoke fuzz-smoke kernel-smoke chaos-smoke coalesce-smoke replace-smoke precompute-smoke flight-smoke perfbench-test

# Fails when any Go file in the tree is not gofmt-formatted (gofmt -l
# lists it).
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated runs of the purge-vs-in-flight-solve regression tests and the
# engine-level Reconfigure hammer under the race detector. These are the
# tests that caught (and now pin) the stale-store cache bug.
race-hammer:
	$(GO) test -race -count=4 ./internal/rwr -run 'TestFinishAfterPurgeDropsStore|TestPurgeBetweenFlightsNoDeadSpace'
	$(GO) test -race -count=4 . -run 'TestReconfigurePurgeRace|TestEngineConcurrentReconfigure'

# Scrape /metrics through the real admin mux and fail on malformed
# Prometheus exposition (plus the engine-level metric assertions).
obs-smoke:
	$(GO) test -count=1 ./internal/obs -run 'TestAdminEndpointSmoke'
	$(GO) test -count=1 . -run 'TestEngineStageTimingsAndMetrics|TestEngineSlowQueryLog'
	$(GO) test -count=1 ./cmd/ceps -run 'TestServeListeners|TestQueryMux'

# End-to-end tracing smoke: serve a traced fast-mode engine, follow one
# query's X-Ceps-Trace-Id through /debug/traces, validate the span tree,
# the waterfall view, and the exposition's new trace/runtime series; plus
# the engine-level span, bit-identity and cancellation regressions, and
# the trace-store race hammer under the race detector.
trace-smoke:
	$(GO) test -count=1 ./internal/obs -run 'TestSpanTreeAndStore|TestSamplingRules|TestTraceHandlerJSON|TestTraceViewHandlerHTML|TestAdminMuxMountsTraceRoutes|TestRegisterRuntimeMetrics'
	$(GO) test -count=1 . -run 'TestEngineTraceSpans|TestTracingBitIdentical|TestTraceCancellation|TestSlowQueryLogTraceFields|TestTracedMetricsExposition'
	$(GO) test -race -count=2 . -run 'TestTraceStoreRaceHammer'
	$(GO) test -count=1 ./cmd/ceps -run 'TestTraceSmoke|TestTraceFlagValidation'

# Short fuzz passes over the graph parsers and the /query request
# decoder; crashers land in testdata/fuzz and fail `make test` from then
# on.
fuzz-smoke:
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME)
	$(GO) test ./cmd/ceps -run='^$$' -fuzz=FuzzQueryRequest -fuzztime=$(FUZZTIME)

# Chaos suite under the race detector: every fault-injection point fires
# at least once and must surface as a typed error or a Degraded-marked
# answer — never a panic, hang, or silent wrong answer — plus the
# resilience integration tests (bit-identity when disabled, admission
# sheds, breaker lifecycle through the engine, pool-wait shed hygiene)
# and the HTTP overload contract.
chaos-smoke:
	$(GO) test -race -count=1 . -run 'TestChaos|TestResilience|TestPoolWaitShed'
	$(GO) test -race -count=1 ./internal/resilience
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 ./cmd/ceps -run 'TestQueryStatusTable|TestWriteQueryErrorRetryAfter|TestQueryMuxPost|TestQueryMuxOverloadResponse'

# Quick pass over the Step-1 kernel grid (2 reps per cell, no JSON): fails
# if one blocked Q=8 solve is not faster than 8 sequential scalar solves.
kernel-smoke:
	RWR_KERNEL_REPS=2 $(GO) test -run '^TestRWRKernelSmoke$$' -count=1 .

# Coalescing smoke: the two-arm comparison at smoke scale (panels must
# actually form, answers must stay bit-identical, throughput must not
# regress), the engine-level bit-identity/shed/hammer regressions under
# the race detector, and the v1 HTTP surface incl. the trace-id-on-every-
# response contract.
coalesce-smoke:
	$(GO) test -count=1 . -run 'TestCoalesceSmoke'
	$(GO) test -race -count=1 . -run 'TestEngineCoalesc'
	$(GO) test -race -count=1 ./internal/rwr -run 'TestCoalesce'
	$(GO) test -count=1 ./cmd/ceps -run 'TestV1|TestLegacyQuery|TestTraceIDOnEveryPath|TestReadQueryRequests'

# Subteam-replacement smoke: the title-paper workload on a tiny substrate.
# Floors on rank stability (warm repeats reproduce the ranking from the
# cache, bit-identical across serving configurations) and panel usage
# (blocked kernel, cold misses, warm hits), plus the core ranking and
# HTTP/CLI surface tests under the race detector.
replace-smoke:
	$(GO) test -count=1 . -run 'TestReplaceSmoke|TestReplaceBitIdentical'
	$(GO) test -race -count=1 . -run 'TestEngineReplaceSubteam|TestReplaceReconfigureHammer'
	$(GO) test -race -count=1 ./internal/core -run 'TestReplaceSubteam'
	$(GO) test -count=1 ./cmd/ceps -run 'TestDecodeReplaceRequestV1|TestV1Replace|TestRunReplaceVerb'

# Precompute-tier smoke: golden artifact-vs-iterative identity on all
# three normalizations, the Reconfigure invalidation regression, the
# artifact-vs-Reconfigure race hammer, cepspre build/verify/corruption
# round-trips, and the cold-start floor (artifact hit rate >= 0.9,
# artifact-served cold pass within 2x of warm-cache latency).
precompute-smoke:
	$(GO) test -count=1 . -run 'TestArtifactGoldenAllNorms|TestArtifactFastModeServing|TestArtifactReconfigureInvalidation|TestReplaceExactViaArtifactTier|TestArtifactDirRejectsDamage|TestArtifactMismatchBypasses|TestPrecomputeSmoke'
	$(GO) test -race -count=2 . -run 'TestArtifactReconfigureRaceHammer'
	$(GO) test -race -count=1 ./internal/artifact
	$(GO) test -count=1 ./cmd/cepspre

# Flight-recorder smoke: the chaos-to-bundle pipeline (injected solve
# delays breach the latency objective, exactly one debounced bundle with
# profiles, traces, and a valid metrics snapshot), the armed-overhead and
# bit-identity floors, the slow-log field-set regression, the admin
# surface hammered under the race detector, and the `ceps diag` CLI
# round-trip.
flight-smoke:
	$(GO) test -count=1 . -run 'TestFlightSmoke|TestFlightOverhead'
	$(GO) test -race -count=1 . -run 'TestAdminHammer'
	$(GO) test -race -count=1 ./internal/obs -run 'TestSLO|TestObjective|TestSpike|TestDebounce|TestTrigger|TestBundle|TestFlight|TestNilFlight|TestSlowQueryEntryFieldSet'
	$(GO) test -count=1 ./cmd/ceps -run 'TestDiag|TestVersionFlag|TestHealthzCarriesVersion'

# The end-to-end benchmark's own tests (input determinism and digests,
# answer checks, cache fit, result keys against BENCHMARK.json). perfbench
# is a separate Go module, so the root `./...` never reaches it. Run the
# benchmark itself with `python3 perfbench/run.py --workload hot`.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Step-1 kernel headline numbers (blocked vs scalar ns/query across the
# Q x workers grid) written to BENCH_rwr.json, which is checked in.
bench-rwr:
	BENCH_RWR_OUT=$(CURDIR)/BENCH_rwr.json $(GO) test -run '^TestRWRKernelSmoke$$' -count=1 .

# Serving-layer headline numbers (cache hit rate, cold vs warm ns/query)
# written to BENCH_serving.json, which is checked in.
bench-smoke:
	BENCH_SERVING_OUT=$(CURDIR)/BENCH_serving.json $(GO) test -run '^TestServingSmoke$$' -count=1 .

# Overload comparison (64 closed-loop clients at 2x measured capacity,
# resilience off vs on) written to BENCH_resilience.json, which is
# checked in. Off must collapse; on must hold goodput near capacity.
bench-resilience:
	$(GO) run ./cmd/cepsbench -exp overload -scale 0.5 -overload-out $(CURDIR)/BENCH_resilience.json

# Coalescing comparison (64 unpaced closed-loop clients draining 512
# distinct 2-source sets through a 4-slot pool, coalescing off vs on)
# written to BENCH_coalesce.json, which is checked in. On must deliver
# >= 1.5x solve-rows/sec at lower p99, bit-identical.
bench-coalesce:
	$(GO) run ./cmd/cepsbench -exp coalesce -scale 0.5 -rwr-iters 25 -coalesce-delay 10ms -coalesce-out $(CURDIR)/BENCH_coalesce.json

# Precompute-tier headline numbers (artifact hit rate, artifact-served
# cold vs warm-cache vs bare-iterative ns/query on the DBLP-scale
# substrate) written to BENCH_precompute.json, which is checked in.
bench-precompute:
	BENCH_PRECOMPUTE_OUT=$(CURDIR)/BENCH_precompute.json $(GO) test -run '^TestPrecomputeSmoke$$' -count=1 .

# Flight-recorder overhead numbers (paired armed-vs-disarmed per-query
# latency, bit-identity verdict) written to BENCH_flight.json, which is
# checked in. Armed must stay within 1% of disarmed.
bench-flight:
	BENCH_FLIGHT_OUT=$(CURDIR)/BENCH_flight.json $(GO) test -run '^TestFlightOverhead$$' -count=1 .

# Subteam-replacement evaluation (held-out co-author recovery, replace
# ranker vs the plain center-piece baseline over identical pools) written
# to BENCH_replace.json, which is checked in.
bench-replace:
	$(GO) run ./cmd/cepsbench -exp replace -scale 0.5 -replace-out $(CURDIR)/BENCH_replace.json

clean:
	$(GO) clean ./...
