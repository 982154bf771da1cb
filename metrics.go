package ceps

import (
	"context"
	"errors"
	"runtime"
	"time"

	"ceps/internal/core"
	"ceps/internal/obs"
)

// This file aggregates per-query stage accounting (Result.Stages) into the
// engine-wide metrics registry served at /metrics, and feeds the
// slow-query log. The metric names are part of the operational contract —
// dashboards and the README "Observability" section reference them — so
// rename with care:
//
//	ceps_queries_total{path="full"|"fast"|"fast_fallback"}
//	ceps_query_errors_total{kind="canceled"|"deadline"|"diverged"|...}
//	ceps_query_duration_seconds                      (histogram)
//	ceps_stage_duration_seconds{stage="partition"|"solve"|"combine"|"extract"}
//	ceps_inflight_queries                            (gauge)
//	ceps_batch_sets_total{outcome="ok"|"error"|"deadline"}
//	ceps_cache_{hits,misses,evictions,invalidations,stale_drops}_total
//	ceps_cache_{entries,bytes_used,bytes_budget}     (gauges)
//	ceps_slow_queries_total
//	ceps_panics_recovered_total
//	ceps_workers                                     (gauge)
//	ceps_solves_total{kernel="blocked"|"artifact"}
//	ceps_solve_rows_total
//	ceps_artifact_{hits,misses,fallbacks,rebinds}_total
//	ceps_artifacts_loaded                            (gauge)
//	ceps_artifact_bound                              (gauge)
//	ceps_artifact_bytes_mapped                       (gauge)
//	ceps_solve_rows_per_second                       (gauge)
//	ceps_traces_sampled_total
//	ceps_traces_dropped_total
//	ceps_admitted_total
//	ceps_shed_total{reason="queue_full"|"deadline_budget"|"codel"|"queue_wait"|"pool_wait"|"coalesce_wait"}
//	ceps_coalesced_solves_total
//	ceps_coalesce_panel_width                        (histogram)
//	ceps_degraded_total{mode="relaxed_tol"|"full_graph_fallback"}
//	ceps_queue_residence_seconds                     (histogram)
//	ceps_queue_depth                                 (gauge)
//	ceps_breaker_state                               (gauge: 0=closed, 1=half-open, 2=open)
//	ceps_breaker_transitions_total{to="open"|"half_open"|"closed"}
//	ceps_replace_total{pool="two_hop"|"densest"|"explicit"}
//	ceps_replace_duration_seconds                    (histogram)
//	ceps_replace_candidates                          (histogram: scored pool size)
//	ceps_build_info{version,go_version}              (gauge, constant 1)
//
// and, when the flight recorder is armed (WithFlightRecorder):
//
//	ceps_slo_burn_rate{objective,window="1m"|"5m"|"1h"}   (gauge)
//	ceps_slo_good_ratio{objective,window}                 (gauge)
//	ceps_slo_breaches_total{objective}
//	ceps_flight_triggers_total{kind="burn_rate"|"latency_spike"|"shed_surge"|"hit_rate_collapse"|"breaker_open"|"manual"}
//	ceps_flight_bundles_total{trigger}
//	ceps_flight_bundle_bytes                              (gauge)
//
// plus the Go runtime series of obs.RegisterRuntimeMetrics
// (go_goroutines, go_heap_alloc_bytes, go_gc_pauses_seconds_total,
// process_uptime_seconds).

// engineMetrics holds the typed handles the hot path updates. Every
// update is an atomic op; none of this perturbs query answers.
type engineMetrics struct {
	reg *obs.Registry

	queriesFull, queriesFast, queriesFallback *obs.Counter

	errCanceled, errDeadline, errDiverged, errBadQuery,
	errBadConfig, errDegenerate, errInternal,
	errUnavailable, errOther *obs.Counter

	// Resilience accounting. shedPoolWait and shedCoalesceWait are the
	// sheds the engine (not the admission controller) counts: a context
	// that died waiting for a solve-pool slot, or queued in a forming
	// coalescer panel. Degraded answers are split by fidelity mode.
	shedPoolWait, shedCoalesceWait    *obs.Counter
	degradedRelaxed, degradedFallback *obs.Counter
	queueResidence                    *obs.Histogram

	durTotal, durPartition, durSolve, durCombine, durExtract *obs.Histogram

	batchOK, batchErr, batchDeadline *obs.Counter

	inflight *obs.Gauge
	panics   *obs.Counter
	slow     *obs.Counter

	// Step 1 kernel accounting: solves by execution strategy — "artifact"
	// means every miss of the call was served by a precomputed row read —
	// plus the total matrix rows swept (sweeps × work-graph nodes), whose
	// ratio to the solve-stage seconds is the rows/s throughput gauge.
	solvesBlocked, solvesArtifact *obs.Counter
	solveRows                     *obs.Counter

	// Coalescer accounting: panels solved and their width distribution
	// (fed by the coalescer's OnSolve hook, not the per-query path — one
	// panel serves misses from many queries).
	coalescedSolves    *obs.Counter
	coalescePanelWidth *obs.Histogram

	// Subteam-replacement accounting: requests by candidate-pool strategy,
	// end-to-end latency, and the scored pool-size distribution. Errors
	// land in the shared ceps_query_errors_total series (same kinds, same
	// dashboards).
	replaceTwoHop, replaceDensest, replaceExplicit *obs.Counter
	replaceDur                                     *obs.Histogram
	replaceCandidates                              *obs.Histogram
}

// newEngineMetrics builds the registry for one engine. cacheStats reads
// the live score-cache counters (zero-valued when caching is off), and
// tracer feeds the trace sampling counters (nil reads zero), so scrapes
// always see the full metric set regardless of configuration.
func newEngineMetrics(cacheStats func() (CacheStats, bool), workers int, tracer *obs.Tracer) *engineMetrics {
	reg := obs.NewRegistry()
	buckets := obs.DurationBuckets()
	qt := "ceps_queries_total"
	qtHelp := "Queries answered, by execution path."
	et := "ceps_query_errors_total"
	etHelp := "Query failures, by error kind."
	st := "ceps_stage_duration_seconds"
	stHelp := "Per-stage query latency: partition=Fast CePS union prep, solve=Step 1 random walks, combine=Step 2, extract=Step 3 EXTRACT."
	m := &engineMetrics{
		reg:             reg,
		queriesFull:     reg.Counter(qt, qtHelp, obs.Label{Name: "path", Value: "full"}),
		queriesFast:     reg.Counter(qt, qtHelp, obs.Label{Name: "path", Value: "fast"}),
		queriesFallback: reg.Counter(qt, qtHelp, obs.Label{Name: "path", Value: "fast_fallback"}),
		errCanceled:     reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "canceled"}),
		errDeadline:     reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "deadline"}),
		errDiverged:     reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "diverged"}),
		errBadQuery:     reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "bad_query"}),
		errBadConfig:    reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "bad_config"}),
		errDegenerate:   reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "degenerate_partition"}),
		errInternal:     reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "internal"}),
		errUnavailable:  reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "unavailable"}),
		errOther:        reg.Counter(et, etHelp, obs.Label{Name: "kind", Value: "other"}),
		shedPoolWait: reg.Counter("ceps_shed_total", "Requests shed to protect the service, by reason.",
			obs.Label{Name: "reason", Value: "pool_wait"}),
		shedCoalesceWait: reg.Counter("ceps_shed_total", "Requests shed to protect the service, by reason.",
			obs.Label{Name: "reason", Value: "coalesce_wait"}),
		degradedRelaxed: reg.Counter("ceps_degraded_total", "Degraded answers served, by fidelity mode.",
			obs.Label{Name: "mode", Value: "relaxed_tol"}),
		degradedFallback: reg.Counter("ceps_degraded_total", "Degraded answers served, by fidelity mode.",
			obs.Label{Name: "mode", Value: "full_graph_fallback"}),
		queueResidence:  reg.Histogram("ceps_queue_residence_seconds", "Admission-queue residence time of admitted requests.", buckets),
		durTotal:        reg.Histogram("ceps_query_duration_seconds", "End-to-end query response time.", buckets),
		durPartition:    reg.Histogram(st, stHelp, buckets, obs.Label{Name: "stage", Value: "partition"}),
		durSolve:        reg.Histogram(st, stHelp, buckets, obs.Label{Name: "stage", Value: "solve"}),
		durCombine:      reg.Histogram(st, stHelp, buckets, obs.Label{Name: "stage", Value: "combine"}),
		durExtract:      reg.Histogram(st, stHelp, buckets, obs.Label{Name: "stage", Value: "extract"}),
		batchOK:         reg.Counter("ceps_batch_sets_total", "Batch query sets, by outcome.", obs.Label{Name: "outcome", Value: "ok"}),
		batchErr:        reg.Counter("ceps_batch_sets_total", "Batch query sets, by outcome.", obs.Label{Name: "outcome", Value: "error"}),
		batchDeadline:   reg.Counter("ceps_batch_sets_total", "Batch query sets, by outcome.", obs.Label{Name: "outcome", Value: "deadline"}),
		inflight:        reg.Gauge("ceps_inflight_queries", "Queries currently executing."),
		panics:          reg.Counter("ceps_panics_recovered_total", "Panics converted to ErrInternal at the Engine boundary."),
		slow:            reg.Counter("ceps_slow_queries_total", "Queries logged by the slow-query log."),
		solvesBlocked:   reg.Counter("ceps_solves_total", "Step 1 solves, by kernel.", obs.Label{Name: "kernel", Value: "blocked"}),
		solvesArtifact:  reg.Counter("ceps_solves_total", "Step 1 solves, by kernel.", obs.Label{Name: "kernel", Value: "artifact"}),
		solveRows:       reg.Counter("ceps_solve_rows_total", "Matrix rows swept by Step 1 power iterations (sweeps × work-graph nodes)."),
		coalescedSolves: reg.Counter("ceps_coalesced_solves_total", "Blocked panels solved by the cross-request coalescer."),
		coalescePanelWidth: reg.Histogram("ceps_coalesce_panel_width",
			"Sources per coalesced panel solve (1 = a panel solved for a single miss).",
			[]float64{1, 2, 4, 8, 16, 32}),
		replaceTwoHop:   reg.Counter("ceps_replace_total", "Subteam-replacement queries, by candidate-pool strategy.", obs.Label{Name: "pool", Value: "two_hop"}),
		replaceDensest:  reg.Counter("ceps_replace_total", "Subteam-replacement queries, by candidate-pool strategy.", obs.Label{Name: "pool", Value: "densest"}),
		replaceExplicit: reg.Counter("ceps_replace_total", "Subteam-replacement queries, by candidate-pool strategy.", obs.Label{Name: "pool", Value: "explicit"}),
		replaceDur:      reg.Histogram("ceps_replace_duration_seconds", "End-to-end subteam-replacement response time.", buckets),
		replaceCandidates: reg.Histogram("ceps_replace_candidates", "Scored candidates per replacement query.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
	}
	cacheCounter := func(read func(CacheStats) uint64) func() float64 {
		return func() float64 {
			st, _ := cacheStats()
			return float64(read(st))
		}
	}
	reg.CounterFunc("ceps_cache_hits_total", "Score-cache hits (stored vector or joined in-flight solve).",
		cacheCounter(func(s CacheStats) uint64 { return s.Hits }))
	reg.CounterFunc("ceps_cache_misses_total", "Score-cache misses (fresh solves).",
		cacheCounter(func(s CacheStats) uint64 { return s.Misses }))
	reg.CounterFunc("ceps_cache_evictions_total", "Vectors evicted to fit the byte budget.",
		cacheCounter(func(s CacheStats) uint64 { return s.Evictions }))
	reg.CounterFunc("ceps_cache_invalidations_total", "Cache purges (reconfiguration / partition swaps).",
		cacheCounter(func(s CacheStats) uint64 { return s.Invalidations }))
	reg.CounterFunc("ceps_cache_stale_drops_total", "Solved vectors dropped because a purge raced their flight.",
		cacheCounter(func(s CacheStats) uint64 { return s.StaleDrops }))
	reg.GaugeFunc("ceps_cache_entries", "Vectors currently cached.", func() float64 {
		st, _ := cacheStats()
		return float64(st.Entries)
	})
	reg.GaugeFunc("ceps_cache_bytes_used", "Bytes of cached vectors.", func() float64 {
		st, _ := cacheStats()
		return float64(st.BytesUsed)
	})
	reg.GaugeFunc("ceps_cache_bytes_budget", "Score-cache byte budget.", func() float64 {
		st, _ := cacheStats()
		return float64(st.BytesBudget)
	})
	reg.GaugeFunc("ceps_workers", "Solve-pool concurrency bound.", func() float64 { return float64(workers) })
	reg.GaugeFunc("ceps_solve_rows_per_second", "Step 1 kernel throughput: rows swept per second of solve-stage time.", func() float64 {
		secs := m.durSolve.Sum()
		if secs <= 0 {
			return 0
		}
		return float64(m.solveRows.Value()) / secs
	})
	reg.CounterFunc("ceps_traces_sampled_total", "Finished traces kept in the trace ring.",
		func() float64 { return float64(tracer.Sampled()) })
	reg.CounterFunc("ceps_traces_dropped_total", "Finished traces discarded by the sampling rules.",
		func() float64 { return float64(tracer.Dropped()) })
	// The constant-1 build-info gauge carries identity as labels, so any
	// scrape (or diagnostic bundle) pins which build produced the numbers.
	reg.Gauge("ceps_build_info", "Build identity as labels; value is always 1.",
		obs.Label{Name: "version", Value: Version},
		obs.Label{Name: "go_version", Value: runtime.Version()}).Set(1)
	obs.RegisterRuntimeMetrics(reg)
	return m
}

// attachArtifacts registers the precompute-tier series, reading stats at
// scrape time (zero-valued when no artifact directory is attached, so the
// families are always present).
func (m *engineMetrics) attachArtifacts(stats func() (ArtifactStats, bool)) {
	read := func(f func(ArtifactStats) float64) func() float64 {
		return func() float64 {
			st, _ := stats()
			return f(st)
		}
	}
	m.reg.CounterFunc("ceps_artifact_hits_total", "Score vectors served from a precomputed artifact row.",
		read(func(s ArtifactStats) float64 { return float64(s.Hits) }))
	m.reg.CounterFunc("ceps_artifact_misses_total", "Artifact-tier consultations that fell through to the iterative solver.",
		read(func(s ArtifactStats) float64 { return float64(s.Misses) }))
	m.reg.CounterFunc("ceps_artifact_fallbacks_total", "Artifacts rejected at bind time (fingerprint matched, shape disagreed).",
		read(func(s ArtifactStats) float64 { return float64(s.Fallbacks) }))
	m.reg.CounterFunc("ceps_artifact_rebinds_total", "Tier rebinds (construction, Reconfigure, partition swaps).",
		read(func(s ArtifactStats) float64 { return float64(s.Rebinds) }))
	m.reg.GaugeFunc("ceps_artifacts_loaded", "Artifacts mmapped from the attached directory.",
		read(func(s ArtifactStats) float64 { return float64(s.Loaded) }))
	m.reg.GaugeFunc("ceps_artifact_bound", "Runtime key spaces currently bound to an artifact.",
		read(func(s ArtifactStats) float64 { return float64(s.Bound) }))
	m.reg.GaugeFunc("ceps_artifact_bytes_mapped", "Total mapped artifact bytes.",
		read(func(s ArtifactStats) float64 { return float64(s.BytesMapped) }))
}

// attachResilience registers the admission/breaker series, reading stats
// at scrape time (zero-valued when resilience is off, so the families are
// always present).
func (m *engineMetrics) attachResilience(stats func() ResilienceStats) {
	shed := "ceps_shed_total"
	shedHelp := "Requests shed to protect the service, by reason."
	tr := "ceps_breaker_transitions_total"
	trHelp := "Circuit-breaker state transitions, by destination state."
	m.reg.CounterFunc("ceps_admitted_total", "Requests admitted by the admission controller.",
		func() float64 { return float64(stats().Admitted) })
	m.reg.CounterFunc(shed, shedHelp,
		func() float64 { return float64(stats().ShedQueueFull) }, obs.Label{Name: "reason", Value: "queue_full"})
	m.reg.CounterFunc(shed, shedHelp,
		func() float64 { return float64(stats().ShedDeadlineBudget) }, obs.Label{Name: "reason", Value: "deadline_budget"})
	m.reg.CounterFunc(shed, shedHelp,
		func() float64 { return float64(stats().ShedCoDel) }, obs.Label{Name: "reason", Value: "codel"})
	m.reg.CounterFunc(shed, shedHelp,
		func() float64 { return float64(stats().ShedQueueWait) }, obs.Label{Name: "reason", Value: "queue_wait"})
	m.reg.CounterFunc(tr, trHelp,
		func() float64 { return float64(stats().ToOpen) }, obs.Label{Name: "to", Value: "open"})
	m.reg.CounterFunc(tr, trHelp,
		func() float64 { return float64(stats().ToHalfOpen) }, obs.Label{Name: "to", Value: "half_open"})
	m.reg.CounterFunc(tr, trHelp,
		func() float64 { return float64(stats().ToClosed) }, obs.Label{Name: "to", Value: "closed"})
	m.reg.GaugeFunc("ceps_breaker_state", "Circuit-breaker state (0=closed, 1=half-open, 2=open).",
		func() float64 { return float64(stats().BreakerStateCode) })
	m.reg.GaugeFunc("ceps_queue_depth", "Admission-queue depth.",
		func() float64 { return float64(stats().QueueDepth) })
}

// queryPath names the execution path for metrics and the slow-query log.
func queryPath(res *Result, fast bool) string {
	switch {
	case res != nil && res.Fallback != nil:
		return "fast_fallback"
	case fast:
		return "fast"
	default:
		return "full"
	}
}

// observeQuery folds one finished query into the engine-wide aggregates.
func (m *engineMetrics) observeQuery(res *Result, err error, elapsed time.Duration, fast bool) {
	switch queryPath(res, fast) {
	case "fast_fallback":
		m.queriesFallback.Inc()
	case "fast":
		m.queriesFast.Inc()
	default:
		m.queriesFull.Inc()
	}
	m.durTotal.Observe(elapsed.Seconds())
	if res != nil {
		st := res.Stages
		if st.Partition > 0 {
			m.durPartition.Observe(st.Partition.Seconds())
		}
		m.durSolve.Observe(st.Solve.Seconds())
		m.durCombine.Observe(st.Combine.Seconds())
		m.durExtract.Observe(st.Extract.Seconds())
		m.countSolve(st.SolveKernel)
		if st.SolveSweeps > 0 && res.WorkGraph != nil {
			m.solveRows.Add(uint64(st.SolveSweeps) * uint64(res.WorkGraph.N()))
		}
	}
	if res != nil && res.Degraded != nil {
		switch res.Degraded.Mode {
		case "relaxed_tol":
			m.degradedRelaxed.Inc()
		default:
			m.degradedFallback.Inc()
		}
	}
	if err != nil {
		// A pool-wait or coalesce-wait shed is load shedding, not a service
		// failure: it counts under ceps_shed_total, never the error-kind
		// series. Splitting by reason keeps the two queueing stages (pool
		// slot vs forming panel) distinguishable on dashboards, and a
		// request sheds under exactly one reason — never both.
		if errors.Is(err, ErrOverloaded) {
			if ShedReason(err) == "coalesce_wait" {
				m.shedCoalesceWait.Inc()
			} else {
				m.shedPoolWait.Inc()
			}
		} else {
			m.errCounter(err).Inc()
		}
	}
}

// countSolve counts one Step 1 solve under its kernel label; "exact"
// (ReplaceSubteam's dense inverse) has no series.
func (m *engineMetrics) countSolve(kernel string) {
	switch kernel {
	case "blocked":
		m.solvesBlocked.Inc()
	case "artifact":
		m.solvesArtifact.Inc()
	}
}

// observeReplace folds one finished subteam-replacement query into the
// engine-wide aggregates. Replacement shares the error-kind, degraded and
// shed series with the query path (same failure modes, same dashboards);
// only the request counter, latency, and pool-size series are its own.
func (m *engineMetrics) observeReplace(res *core.ReplaceResult, strategy string, err error, elapsed time.Duration) {
	switch strategy {
	case "densest":
		m.replaceDensest.Inc()
	case "explicit":
		m.replaceExplicit.Inc()
	default:
		m.replaceTwoHop.Inc()
	}
	m.replaceDur.Observe(elapsed.Seconds())
	if res != nil {
		m.replaceCandidates.Observe(float64(res.PoolSize))
		m.durSolve.Observe(res.Stages.Solve.Seconds())
		m.countSolve(res.Stages.SolveKernel)
		if res.Degraded != nil {
			switch res.Degraded.Mode {
			case "relaxed_tol":
				m.degradedRelaxed.Inc()
			default:
				m.degradedFallback.Inc()
			}
		}
	}
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			if ShedReason(err) == "coalesce_wait" {
				m.shedCoalesceWait.Inc()
			} else {
				m.shedPoolWait.Inc()
			}
		} else {
			m.errCounter(err).Inc()
		}
	}
}

// errCounter classifies err into the labeled error-kind series. The order
// matters: context kinds first, since a deadline can wrap other faults.
func (m *engineMetrics) errCounter(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return m.errDeadline
	case errors.Is(err, ErrCanceled) || errors.Is(err, context.Canceled):
		return m.errCanceled
	case errors.Is(err, ErrDiverged):
		return m.errDiverged
	case errors.Is(err, ErrBadQuery):
		return m.errBadQuery
	case errors.Is(err, ErrBadConfig):
		return m.errBadConfig
	case errors.Is(err, ErrDegeneratePartition):
		return m.errDegenerate
	case errors.Is(err, ErrUnavailable):
		return m.errUnavailable
	case errors.Is(err, ErrInternal):
		return m.errInternal
	default:
		return m.errOther
	}
}

// ms renders a duration in float milliseconds for the slow-query log.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recordSlow writes a slow-query log line when a log is attached and the
// query crossed its threshold. Failures are logged too — a timed-out
// query is the slowest query there is.
func (e *Engine) recordSlow(queries []int, res *Result, err error, elapsed time.Duration, fast bool, traceID string) {
	if e.slow == nil {
		return
	}
	entry := obs.SlowQueryEntry{
		Time:      time.Now(),
		Queries:   append([]int(nil), queries...),
		Path:      queryPath(res, fast),
		ElapsedMS: ms(elapsed),
		TraceID:   traceID,
	}
	if res != nil {
		st := res.Stages
		entry.PartitionMS = ms(st.Partition)
		entry.SolveMS = ms(st.Solve)
		entry.CombineMS = ms(st.Combine)
		entry.ExtractMS = ms(st.Extract)
		entry.CacheHits = st.CacheHits
		entry.CacheMisses = st.CacheMisses
		entry.ArtifactHits = st.ArtifactHits
		entry.SolveKernel = st.SolveKernel
		entry.SolveSweeps = st.SolveSweeps
		if res.Fallback != nil {
			entry.Fallback = res.Fallback.Reason
		}
		if res.Degraded != nil {
			entry.Degraded = res.Degraded.Mode
			entry.DegradedReason = res.Degraded.Reason
		}
	}
	if err != nil {
		entry.Error = err.Error()
		if errors.Is(err, ErrOverloaded) {
			entry.Shed = ShedReason(err)
		}
	}
	if e.slow.Record(entry) {
		e.metrics.slow.Inc()
	}
}
