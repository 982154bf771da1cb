package ceps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"time"

	"ceps/internal/artifact"
	"ceps/internal/core"
	"ceps/internal/fault"
	"ceps/internal/obs"
	"ceps/internal/resilience"
	"ceps/internal/rwr"
)

// Engine is the concurrency-safe front door for repeated querying over one
// graph. It reuses the normalized random-walk transition matrix across
// queries, optionally holds Fast CePS pre-partition state, and — when
// constructed with WithCache — shares an LRU cache of per-source RWR score
// vectors across every query path, so overlapping query sets pay each
// member's solve once.
//
// All methods are safe for concurrent use: each query works against an
// immutable snapshot of the configuration and partition state taken under
// a read lock, so Reconfigure / EnableFastMode / DisableFastMode can run
// concurrently with queries without tearing anything. The serving state
// (cache and solve pool) is fixed at construction and internally
// synchronized.
type Engine struct {
	g *Graph

	mu       sync.RWMutex
	cfg      Config
	pt       *Partitioned
	runner   *core.Runner // lazily built for cfg.RWR, serving-attached
	dgRunner *core.Runner // lazily built for the degraded (relaxed-Tol) RWR config

	cache *rwr.ScoreCache // nil when caching is off
	pool  *rwr.Pool       // never nil
	coal  *rwr.Coalescer  // nil when coalescing is off

	arts     *artifact.Tier  // nil when no artifact directory is attached
	artStore *artifact.Store // backing store of arts, closed with the tier
	graphFP  uint64          // content fingerprint of g, computed when arts != nil

	res *resilience.Controller // nil when resilience is off (the default)

	bp *BipartiteGraph // nil unless WithBipartite attached a substrate

	metrics *engineMetrics      // never nil
	slow    *obs.SlowLog        // nil when no slow-query log is attached
	tracer  *obs.Tracer         // nil when tracing is off (nil is a valid no-op)
	flight  *obs.FlightRecorder // nil when disarmed (nil is a valid no-op)
}

// Option configures an Engine at construction. Options are applied in
// order; the last write wins.
type Option func(*engineConfig) error

// engineConfig accumulates option state before the Engine is assembled.
type engineConfig struct {
	cfg        Config
	cacheBytes int64
	coalesce   *CoalesceOptions
	workers    int
	fastMode   bool
	fastParts  int
	fastOpts   PartitionOptions
	slowW      io.Writer
	slowThresh time.Duration
	tracing    *TracingOptions
	resilience *ResilienceOptions
	bp         *BipartiteGraph
	artifacts  string
	flight     *FlightRecorderOptions
}

// WithBipartite attaches the author–paper incidence substrate the engine's
// graph was projected from. ReplaceSubteam then scores structural overlap
// by co-authored-paper counts (the substrate's exact kernel) instead of
// approximating it on the projected co-authorship graph. Other query types
// ignore it. The substrate's author ids must coincide with the graph's
// node ids (as dblp.Dataset guarantees between Papers and Graph).
func WithBipartite(bp *BipartiteGraph) Option {
	return func(ec *engineConfig) error {
		if bp == nil {
			return fmt.Errorf("%w: nil bipartite substrate", ErrBadConfig)
		}
		ec.bp = bp
		return nil
	}
}

// WithConfig sets the pipeline configuration (default: DefaultConfig).
// The config is validated by NewEngine.
func WithConfig(cfg Config) Option {
	return func(ec *engineConfig) error {
		ec.cfg = cfg
		return nil
	}
}

// WithCache enables the shared score cache with the given byte budget:
// per-source RWR score vectors (8·N bytes each, plus small overhead) are
// kept under LRU eviction and reused by every query path, including Fast
// CePS and batches. Size it as budgetBytes ≈ 8·N·(expected distinct
// sources); see README.md "Serving" for guidance.
func WithCache(budgetBytes int64) Option {
	return func(ec *engineConfig) error {
		if budgetBytes <= 0 {
			return fmt.Errorf("%w: cache budget %d bytes must be positive", ErrBadConfig, budgetBytes)
		}
		ec.cacheBytes = budgetBytes
		return nil
	}
}

// WithWorkers bounds how many random-walk solves run concurrently across
// all queries and batches on this Engine (default: GOMAXPROCS). The bound
// is global: a batch of 100 query sets still runs at most n solves at
// once.
func WithWorkers(n int) Option {
	return func(ec *engineConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: worker count %d must be positive", ErrBadConfig, n)
		}
		ec.workers = n
		return nil
	}
}

// WithCoalescing enables the cross-request solve coalescer: cache misses
// from concurrent queries join a forming panel — bounded by a latency
// budget (CoalesceOptions.MaxWait, default 1ms) and a width cap (MaxWidth,
// default 16), released early whenever a pool slot is already free — and
// the panel solves as one blocked multi-source call under one pool slot.
// Coalesced answers are bit-identical to uncoalesced ones (the blocked
// kernel is column-wise identical to scalar); the option only changes how
// concurrent misses are scheduled, trading up to MaxWait of added latency
// for streaming the transition matrix once per panel instead of once per
// miss. Requires WithCache — the fan-out rides the cache's single-flight
// entries — and NewEngine rejects the combination without it. Individual
// calls can opt out with WithCoalesceHint(false) (or Config.NoCoalesce).
func WithCoalescing(o CoalesceOptions) Option {
	return func(ec *engineConfig) error {
		if o.MaxWait < 0 {
			return fmt.Errorf("%w: negative coalesce wait budget %v", ErrBadConfig, o.MaxWait)
		}
		if o.MaxWidth < 0 {
			return fmt.Errorf("%w: negative coalesce panel width %d", ErrBadConfig, o.MaxWidth)
		}
		ec.coalesce = &o
		return nil
	}
}

// WithFastMode pre-partitions the graph into p parts at construction time
// (Table 5 Step 0); queries then use Fast CePS. Equivalent to calling
// EnableFastMode right after NewEngine.
func WithFastMode(p int, opts PartitionOptions) Option {
	return func(ec *engineConfig) error {
		if p <= 0 {
			return fmt.Errorf("%w: partition count %d must be positive", ErrBadConfig, p)
		}
		ec.fastMode = true
		ec.fastParts = p
		ec.fastOpts = opts
		return nil
	}
}

// WithArtifactDir attaches a precompute-artifact directory written by the
// cepspre tool: per-partition solve artifacts are mmapped at construction
// and consulted on the serving miss path, between the score cache and the
// iterative solver, so a cold query over a precomputed partition union
// becomes one mat-vec row read. Artifacts are content-keyed by graph, RWR
// config, and partition fingerprints; any mismatch with the live engine
// state (including after Reconfigure) cleanly bypasses the tier — answers
// are then identical to an engine without this option. A directory that
// exists but fails to open (corrupt or truncated artifacts, bad index)
// rejects construction with ErrBadConfig rather than silently serving
// nothing.
func WithArtifactDir(dir string) Option {
	return func(ec *engineConfig) error {
		if dir == "" {
			return fmt.Errorf("%w: empty artifact directory", ErrBadConfig)
		}
		ec.artifacts = dir
		return nil
	}
}

// WithSlowQueryLog attaches a slow-query log: every query (including
// failed ones) whose wall time meets or exceeds threshold is written to w
// as one JSON line with the per-stage breakdown and cache counters — see
// README.md "Observability" for the field reference. Writes are
// serialized; w need not be safe for concurrent use. A threshold of 0
// logs every query.
func WithSlowQueryLog(w io.Writer, threshold time.Duration) Option {
	return func(ec *engineConfig) error {
		if w == nil {
			return fmt.Errorf("%w: nil slow-query log writer", ErrBadConfig)
		}
		if threshold < 0 {
			return fmt.Errorf("%w: negative slow-query threshold %v", ErrBadConfig, threshold)
		}
		ec.slowW = w
		ec.slowThresh = threshold
		return nil
	}
}

// WithTracing enables request-scoped span tracing: every query records a
// span tree mirroring the pipeline stages (partition/solve/combine/extract,
// with per-sweep solver events), and finished traces are kept in a
// fixed-capacity ring when head-sampled (SampleRate), slower than
// SlowThreshold, or failed. Retained traces are served by AdminMux's
// /debug/traces endpoints via Engine.TraceStore. Tracing never changes
// answers, and an engine without WithTracing pays only nil-pointer checks.
func WithTracing(o TracingOptions) Option {
	return func(ec *engineConfig) error {
		if o.SampleRate < 0 || o.SampleRate > 1 {
			return fmt.Errorf("%w: trace sample rate %g outside [0, 1]", ErrBadConfig, o.SampleRate)
		}
		if o.Buffer < 0 {
			return fmt.Errorf("%w: trace buffer %d must not be negative", ErrBadConfig, o.Buffer)
		}
		if o.SlowThreshold < 0 {
			return fmt.Errorf("%w: negative trace slow threshold %v", ErrBadConfig, o.SlowThreshold)
		}
		ec.tracing = &o
		return nil
	}
}

// WithResilience enables the serving-protection layer: a bounded,
// deadline-aware admission queue with CoDel shedding in front of every
// query path (rejections carry ErrOverloaded with a Retry-After hint), and
// a circuit breaker that routes queries to relaxed-tolerance degraded
// answers (marked on Result.Degraded) when the normal path is failing or
// saturated. The zero Options value picks defaults sized from the engine's
// worker bound. Without this option the engine admits everything
// unconditionally and answers are bit-identical to earlier versions.
func WithResilience(o ResilienceOptions) Option {
	return func(ec *engineConfig) error {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		ec.resilience = &o
		return nil
	}
}

// NewEngine creates an engine over g. With no options it answers
// full-graph queries under DefaultConfig with no score cache and a
// GOMAXPROCS solve bound.
//
// Migrating from the v1 constructor: NewEngine(g, cfg) becomes
// NewEngine(g, ceps.WithConfig(cfg)) — and now returns an error, because
// options (config validation, pre-partitioning) can fail at construction.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadQuery)
	}
	ec := engineConfig{cfg: DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&ec); err != nil {
			return nil, err
		}
	}
	if err := ec.cfg.Validate(); err != nil {
		return nil, err
	}
	if ec.workers == 0 {
		ec.workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		g:    g,
		cfg:  ec.cfg,
		pool: rwr.NewPool(ec.workers),
		bp:   ec.bp,
	}
	if ec.cacheBytes > 0 {
		e.cache = rwr.NewScoreCache(ec.cacheBytes)
	}
	if ec.coalesce != nil {
		if e.cache == nil {
			return nil, fmt.Errorf("%w: WithCoalescing requires WithCache (the panel fan-out rides the cache's single-flight entries)", ErrBadConfig)
		}
		e.coal = rwr.NewCoalescer(*ec.coalesce)
	}
	if ec.tracing != nil {
		e.tracer = obs.NewTracer(*ec.tracing)
	}
	// The tracer must exist before the registry: the ceps_traces_* counter
	// funcs read it at scrape time (and read zero from a nil tracer).
	e.metrics = newEngineMetrics(e.CacheStats, ec.workers, e.tracer)
	if e.coal != nil {
		e.coal.OnSolve(func(width int) {
			e.metrics.coalescedSolves.Inc()
			e.metrics.coalescePanelWidth.Observe(float64(width))
		})
	}
	if ec.resilience != nil {
		// The admission controller's deadline budget is driven by the live
		// p90 of end-to-end latency, so the estimate tracks the workload
		// (and the degraded path's cheaper solves) without configuration.
		ctrl, err := resilience.New(*ec.resilience, ec.workers,
			func() time.Duration {
				return time.Duration(e.metrics.durTotal.Quantile(0.9) * float64(time.Second))
			},
			func(d time.Duration) { e.metrics.queueResidence.Observe(d.Seconds()) })
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		e.res = ctrl
	}
	// Resilience series are registered unconditionally (zero-valued when
	// the layer is off) so dashboards never lose the family.
	e.metrics.attachResilience(func() ResilienceStats {
		if e.res == nil {
			return ResilienceStats{BreakerState: resilience.StateClosed.String()}
		}
		return e.res.Stats()
	})
	// Artifact series likewise register unconditionally: they read the tier
	// at scrape time and report zero until (unless) one is attached below.
	e.metrics.attachArtifacts(e.ArtifactStats)
	if ec.slowW != nil {
		e.slow = obs.NewSlowLog(ec.slowW, ec.slowThresh)
	}
	if ec.fastMode {
		pt, err := core.PrePartition(g, ec.fastParts, ec.fastOpts)
		if err != nil {
			return nil, err
		}
		e.pt = pt
	}
	if ec.artifacts != "" {
		store, err := artifact.Open(ec.artifacts)
		if err != nil {
			return nil, fmt.Errorf("%w: opening artifact directory %q: %v", ErrBadConfig, ec.artifacts, err)
		}
		e.artStore = store
		e.arts = artifact.NewTier(store, log.Printf)
		// The graph fingerprint is the content key artifacts were built
		// against; one O(M) pass here buys every later bind.
		e.graphFP = g.Fingerprint()
		e.rebindArtifacts()
	}
	// The flight recorder arms last: its stat sources and objective set
	// read the fully assembled engine (artifact tier, resilience layer).
	if ec.flight != nil {
		if err := e.armFlightRecorder(*ec.flight); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// Config returns the engine's current configuration.
func (e *Engine) Config() Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg
}

// serving bundles the engine's cache, pool, coalescer and artifact tier
// for the core query paths. All are fixed at construction, so no lock is
// needed. The tier is only placed in the interface field when it exists —
// a typed-nil ArtifactReader would defeat the core layer's nil checks.
func (e *Engine) serving() core.Serving {
	sv := core.Serving{Cache: e.cache, Pool: e.pool, Coalescer: e.coal}
	if e.arts != nil {
		sv.Artifacts = e.arts
	}
	return sv
}

// rebindArtifacts re-derives the artifact tier's key-space bindings from
// the engine's current config and partition state: drop everything (bump
// the binding generation), then bind afresh. It runs at construction and
// after every state change that moves the runtime key spaces — an RWR
// reconfigure or a partition swap — in generation-bump parity with the
// ScoreCache purge those paths already do, so a stale artifact can never
// serve a reconfigured engine.
func (e *Engine) rebindArtifacts() {
	if e.arts == nil {
		return
	}
	e.mu.RLock()
	cfg, pt := e.cfg, e.pt
	e.mu.RUnlock()
	e.arts.Rebind()
	core.BindArtifacts(e.arts, e.g, e.graphFP, cfg.RWR, pt)
}

// snapshot returns the configuration and partition state one query runs
// against. Reconfiguration concurrent with the query affects only later
// queries.
func (e *Engine) snapshot() (Config, *Partitioned) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg, e.pt
}

// Reconfigure atomically replaces the engine's configuration for
// subsequent queries. Changing the RWR parameters invalidates the cached
// transition matrix and purges the score cache (stale vectors could never
// be read — their key space dies with the old config — but the memory is
// released eagerly). In-flight queries finish under the snapshot they
// started with.
func (e *Engine) Reconfigure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.setConfig(cfg)
	return nil
}

func (e *Engine) setConfig(cfg Config) {
	e.mu.Lock()
	rwrChanged := cfg.RWR != e.cfg.RWR
	e.cfg = cfg
	if rwrChanged {
		e.runner = nil
		e.dgRunner = nil
	}
	e.mu.Unlock()
	if rwrChanged {
		if e.cache != nil {
			e.cache.Purge()
		}
		e.rebindArtifacts()
	}
}

// Metrics returns the engine's metrics registry. Serve it over HTTP with
// obs.Handler / obs.AdminMux (the ceps CLI's -admin flag does exactly
// that), or scrape it in-process with WriteText. The registry is live:
// every scrape reads the current counters.
func (e *Engine) Metrics() *MetricsRegistry { return e.metrics.reg }

// TraceStore returns the ring of retained traces (the backing store of
// AdminMux's /debug/traces endpoints), or nil when the engine was built
// without WithTracing.
func (e *Engine) TraceStore() *obs.TraceStore { return e.tracer.Store() }

// Tracer returns the engine's tracer, nil when tracing is off. A nil
// tracer is a valid no-op receiver for its whole method set.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// StartTrace opens a root span for a request that will issue one or more
// queries, so server handlers can put their own envelope (HTTP decode,
// response encode) on the waterfall and tie the response to a trace id
// (the X-Ceps-Trace-Id header). Queries issued with the returned context
// nest under it. The caller must End the span; with tracing off the span
// is nil and every operation on it no-ops.
func (e *Engine) StartTrace(ctx context.Context, name string) (context.Context, *obs.Span) {
	return e.tracer.StartRoot(ctx, name)
}

// CacheStats returns a snapshot of the score-cache counters. The second
// return is false when the engine was built without WithCache.
func (e *Engine) CacheStats() (CacheStats, bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.Stats(), true
}

// CoalesceStats returns a snapshot of the solve coalescer's counters. The
// second return is false when the engine was built without WithCoalescing.
func (e *Engine) CoalesceStats() (CoalesceStats, bool) {
	if e.coal == nil {
		return CoalesceStats{}, false
	}
	return e.coal.Stats(), true
}

// ArtifactStats returns a snapshot of the precompute tier's counters. The
// second return is false when the engine was built without WithArtifactDir.
func (e *Engine) ArtifactStats() (ArtifactStats, bool) {
	if e.arts == nil {
		return ArtifactStats{}, false
	}
	return e.arts.Stats(), true
}

// Close releases resources the engine holds beyond garbage-collected
// memory: the flight recorder's evaluator goroutine (waiting out any
// in-flight bundle capture) and the mmapped artifact store. It is a no-op
// on an engine built with neither, and answers issued after Close on one
// built with WithArtifactDir are undefined.
func (e *Engine) Close() error {
	e.flight.Close()
	if e.artStore == nil {
		return nil
	}
	return e.artStore.Close()
}

// EnableFastMode pre-partitions the graph into p parts (Table 5 Step 0);
// subsequent Query calls use Fast CePS. It reports the one-time partition
// cost through the returned Partitioned's PartitionTime.
func (e *Engine) EnableFastMode(p int, opts PartitionOptions) (*Partitioned, error) {
	return e.EnableFastModeCtx(context.Background(), p, opts)
}

// EnableFastModeCtx is EnableFastMode with cooperative cancellation of the
// multilevel partitioner. Queries keep answering (on the previous state)
// while the partitioner runs; the new state is swapped in atomically on
// success.
func (e *Engine) EnableFastModeCtx(ctx context.Context, p int, opts PartitionOptions) (*Partitioned, error) {
	pt, err := core.PrePartitionCtx(ctx, e.g, p, opts)
	if err != nil {
		return nil, err
	}
	e.installPartitioned(pt)
	return pt, nil
}

// SetPartitioned installs pre-built Fast CePS state (e.g. partitioned
// under a caller-controlled context with PrePartitionCtx, or loaded from a
// snapshot). A nil pt disables fast mode.
func (e *Engine) SetPartitioned(pt *Partitioned) { e.installPartitioned(pt) }

func (e *Engine) installPartitioned(pt *Partitioned) {
	e.mu.Lock()
	changed := pt != e.pt
	e.pt = pt
	e.mu.Unlock()
	// Hand-built Partitioned literals carry no unique identity, so two
	// successive installs could otherwise collide in the cache's union key
	// spaces; purging on swap closes that hole cheaply.
	if changed && pt != nil && e.cache != nil {
		e.cache.Purge()
	}
	if changed {
		e.rebindArtifacts()
	}
}

// Partitioned returns the engine's Fast CePS state, nil when fast mode is
// off.
func (e *Engine) Partitioned() *Partitioned {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pt
}

// DisableFastMode reverts the engine to full-graph CePS.
func (e *Engine) DisableFastMode() {
	e.installPartitioned(nil)
}

// FastMode reports whether Fast CePS is active.
func (e *Engine) FastMode() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pt != nil
}

// Prepare eagerly builds the cached transition matrix the full-graph query
// path uses, so the first QueryCtx call does not pay the O(M)
// normalization inside its deadline. It is a no-op when the matrix is
// already built. Services that hand out tight per-query deadlines should
// call Prepare once at startup.
func (e *Engine) Prepare() error {
	cfg, _ := e.snapshot()
	_, err := e.runnerFor(cfg.RWR)
	return err
}

// runnerFor returns a full-graph runner whose cached matrix matches rc,
// building (and, when still current, publishing) one as needed. Queries
// running under an older snapshot after a reconfigure get a private
// runner rather than an error.
func (e *Engine) runnerFor(rc RWRConfig) (*core.Runner, error) {
	e.mu.RLock()
	r, dr := e.runner, e.dgRunner
	e.mu.RUnlock()
	if r != nil && r.RWRConfig() == rc {
		return r, nil
	}
	if dr != nil && dr.RWRConfig() == rc {
		return dr, nil
	}
	nr, err := core.NewRunner(e.g, rc)
	if err != nil {
		return nil, err
	}
	nr.WithServing(e.serving())
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.cfg.RWR == rc:
		if e.runner != nil && e.runner.RWRConfig() == rc {
			return e.runner, nil // another goroutine won the build race
		}
		e.runner = nr
	case e.res != nil && degradedRWR(e.cfg.RWR, e.res.Options()) == rc:
		// The breaker's degraded config gets its own published runner —
		// otherwise every degraded query would pay the O(M) matrix
		// normalization, defeating the point of a cheap fallback path.
		if e.dgRunner != nil && e.dgRunner.RWRConfig() == rc {
			return e.dgRunner, nil
		}
		e.dgRunner = nr
	}
	return nr, nil
}

// Query answers a center-piece subgraph query for the given query nodes,
// using Fast CePS when fast mode is enabled and the cached transition
// matrix otherwise.
//
// Deprecated: use Do, which adds per-call options; Query(q...) is
// Do(context.Background(), q).
func (e *Engine) Query(queries ...int) (*Result, error) {
	return e.Do(context.Background(), queries)
}

// QueryCtx is Query with cooperative cancellation and deadline support:
// ctx is checked at every power-iteration sweep and EXTRACT step. The
// Engine boundary additionally converts any panic escaping the pipeline
// into an error wrapping ErrInternal, so one poisoned query cannot crash
// a service that multiplexes many callers onto one Engine.
//
// Deprecated: use Do; QueryCtx(ctx, q...) is Do(ctx, q).
func (e *Engine) QueryCtx(ctx context.Context, queries ...int) (res *Result, err error) {
	return e.Do(ctx, queries)
}

// QueryKSoftAND answers a K_softAND query without mutating the engine's
// stored configuration.
//
// Deprecated: use Do with WithK.
func (e *Engine) QueryKSoftAND(k int, queries ...int) (*Result, error) {
	return e.Do(context.Background(), queries, WithK(k))
}

// QueryKSoftANDCtx is QueryKSoftAND with cooperative cancellation, routed
// through the same config/partition snapshot as QueryCtx.
//
// Deprecated: use Do with WithK; QueryKSoftANDCtx(ctx, k, q...) is
// Do(ctx, q, WithK(k)).
func (e *Engine) QueryKSoftANDCtx(ctx context.Context, k int, queries ...int) (res *Result, err error) {
	return e.Do(ctx, queries, WithK(k))
}

// queryWith answers one query under an already-taken snapshot, and is the
// single funnel every query path drains through — which makes it the one
// place to meter: it feeds the engine-wide aggregates (path, error kind,
// total and per-stage latency) and the slow-query log. Instrumentation
// only reads the finished Result; answers stay bit-identical to an
// unmetered run.
func (e *Engine) queryWith(ctx context.Context, cfg Config, pt *Partitioned, queries []int, noDegrade bool) (*Result, error) {
	start := time.Now()
	qctx, span := e.querySpan(ctx)
	span.SetAttr(obs.Int("queries", len(queries)), obs.Int("k", cfg.EffectiveK(len(queries))))
	// Resilience gate: admission first (bounded queue, deadline budget,
	// CoDel), then the breaker's routing decision. Both are skipped —
	// leaving answers bit-identical — when WithResilience was not given.
	var (
		release  func()
		probe    bool
		degraded *core.Degradation
	)
	if e.res != nil {
		var err error
		release, err = e.res.Admit(qctx)
		if err != nil {
			span.SetAttr(obs.Str("shed", fault.ShedReason(err)))
			span.SetError(err)
			span.End()
			// Sheds skip the metrics funnel at the bottom, so the SLO
			// windows are fed here — the shed-rate objective counts them.
			e.flight.ObserveQuery(flightOutcome(nil, err, time.Since(start)))
			return nil, err
		}
		switch e.res.Route() {
		case resilience.RouteProbe:
			probe = true
		case resilience.RouteDegrade:
			if noDegrade || e.res.Options().NoDegrade {
				release()
				err := fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
				e.metrics.errCounter(err).Inc()
				span.SetAttr(obs.Str("shed", "breaker_open"))
				span.SetError(err)
				span.End()
				e.flight.ObserveQuery(flightOutcome(nil, err, time.Since(start)))
				return nil, err
			}
			cfg, degraded = degradeConfig(cfg, e.res.Options())
		}
	}
	e.metrics.inflight.Add(1)
	res, err := func() (*Result, error) {
		defer e.metrics.inflight.Add(-1) // runs even when the pipeline panics
		if release != nil {
			defer release()
		}
		if len(queries) == 0 {
			return nil, fmt.Errorf("%w: no query nodes given", ErrBadQuery)
		}
		if pt != nil {
			return pt.CePSServingCtx(qctx, queries, cfg, e.serving())
		}
		runner, err := e.runnerFor(cfg.RWR)
		if err != nil {
			return nil, err
		}
		return runner.QueryCtx(qctx, queries, cfg)
	}()
	if e.res != nil {
		e.res.Observe(breakerFailure(err), probe)
	}
	if degraded != nil && err == nil && res != nil {
		res.Degraded = degraded
	}
	elapsed := time.Since(start)
	traceID := span.TraceID()
	if res != nil {
		res.TraceID = traceID
	}
	span.SetAttr(obs.Str("path", queryPath(res, pt != nil)))
	if res != nil {
		span.SetAttr(obs.Str("solve_kernel", res.Stages.SolveKernel),
			obs.Int("solve_sweeps", res.Stages.SolveSweeps),
			obs.Int("cache_hits", res.Stages.CacheHits),
			obs.Int("cache_misses", res.Stages.CacheMisses),
			obs.Int("artifact_hits", res.Stages.ArtifactHits))
		if res.Fallback != nil {
			span.SetAttr(obs.Str("fallback", res.Fallback.Reason))
		}
		if res.Degraded != nil {
			span.SetAttr(obs.Str("degraded", res.Degraded.Mode),
				obs.Str("degraded_reason", res.Degraded.Reason))
		}
	}
	span.SetError(err)
	span.End()
	e.metrics.observeQuery(res, err, elapsed, pt != nil)
	e.recordSlow(queries, res, err, elapsed, pt != nil, traceID)
	e.flight.ObserveQuery(flightOutcome(res, err, elapsed))
	return res, err
}

// degradedRWR relaxes an RWR config to the breaker's cheap fallback shape:
// tolerance loosened to at least DegradedTol (so early stopping bites after
// a handful of sweeps) and iterations capped at DegradedIterations.
func degradedRWR(rc RWRConfig, o ResilienceOptions) RWRConfig {
	if rc.Tol < o.DegradedTol {
		rc.Tol = o.DegradedTol
	}
	if rc.Iterations > o.DegradedIterations {
		rc.Iterations = o.DegradedIterations
	}
	return rc
}

// degradeConfig applies degradedRWR to a query's config snapshot and
// builds the Degradation marker the result will carry. The relaxed config
// has a different fingerprint, so cached degraded vectors live in their own
// key space and can never be served to full-fidelity queries.
func degradeConfig(cfg Config, o ResilienceOptions) (Config, *core.Degradation) {
	cfg.RWR = degradedRWR(cfg.RWR, o)
	return cfg, &core.Degradation{
		Mode: "relaxed_tol",
		Reason: fmt.Sprintf("circuit breaker open: solved with tol=%g, iterations<=%d",
			cfg.RWR.Tol, cfg.RWR.Iterations),
	}
}

// breakerFailure classifies a query outcome for the circuit breaker.
// Caller mistakes (bad query/config) and caller hang-ups (pure
// cancellation) say nothing about service health; everything else —
// deadline misses, divergence, internal errors, pool-wait sheds — counts
// as a failure.
func breakerFailure(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBadQuery), errors.Is(err, ErrBadConfig):
		return false
	case errors.Is(err, ErrCanceled) && !errors.Is(err, ErrDeadlineExceeded):
		return false
	default:
		return true
	}
}

// ResilienceStats snapshots the resilience controller's counters; ok is
// false when the engine was built without WithResilience.
func (e *Engine) ResilienceStats() (ResilienceStats, bool) {
	if e.res == nil {
		return ResilienceStats{}, false
	}
	return e.res.Stats(), true
}

// BreakerState returns the circuit breaker's current state (BreakerClosed
// when resilience is off).
func (e *Engine) BreakerState() BreakerState {
	if e.res == nil {
		return BreakerClosed
	}
	return e.res.BreakerState()
}

// querySpan opens the per-query span: nested under the caller's span when
// ctx already carries one (an Engine.StartTrace envelope, e.g. the HTTP
// handler's), otherwise as a new root trace. With tracing off both paths
// yield a nil span.
func (e *Engine) querySpan(ctx context.Context) (context.Context, *obs.Span) {
	if obs.SpanFromContext(ctx) != nil {
		return obs.StartSpan(ctx, "query")
	}
	return e.tracer.StartRoot(ctx, "query")
}

// TopCenterPieces ranks the strongest center-piece candidates — Steps 1–2
// only — reusing the engine's cached matrix and score cache. Fast mode
// does not apply (ranking is over the full graph).
func (e *Engine) TopCenterPieces(queries []int, topN int) ([]RankedNode, error) {
	return e.TopCenterPiecesCtx(context.Background(), queries, topN)
}

// TopCenterPiecesCtx is TopCenterPieces with cooperative cancellation.
func (e *Engine) TopCenterPiecesCtx(ctx context.Context, queries []int, topN int) (ranked []RankedNode, err error) {
	defer e.recoverToError(&err)
	cfg, _ := e.snapshot()
	runner, err := e.runnerFor(cfg.RWR)
	if err != nil {
		return nil, err
	}
	return runner.TopCenterPiecesCtx(ctx, queries, cfg, topN)
}

// InferK chooses a K_softAND coefficient from the mutual-support structure
// of the query set, reusing the engine's cached matrix and score cache.
// tau ≤ 0 uses the default support threshold.
func (e *Engine) InferK(queries []int, tau float64) (int, []int, error) {
	return e.InferKCtx(context.Background(), queries, tau)
}

// InferKCtx is InferK with cooperative cancellation.
func (e *Engine) InferKCtx(ctx context.Context, queries []int, tau float64) (k int, supports []int, err error) {
	defer e.recoverToError(&err)
	cfg, _ := e.snapshot()
	runner, err := e.runnerFor(cfg.RWR)
	if err != nil {
		return 0, nil, err
	}
	return runner.InferKCtx(ctx, queries, cfg, tau)
}

// QueryAutoK infers the K_softAND coefficient with InferK and answers the
// query with it; the chosen k is recoverable from the result's Combiner.
func (e *Engine) QueryAutoK(queries ...int) (*Result, error) {
	return e.QueryAutoKCtx(context.Background(), queries...)
}

// QueryAutoKCtx is QueryAutoK with cooperative cancellation. The inference
// pass and the query share the score cache, so the second step reuses the
// first's solves.
func (e *Engine) QueryAutoKCtx(ctx context.Context, queries ...int) (res *Result, err error) {
	defer e.recoverToError(&err)
	cfg, pt := e.snapshot()
	runner, err := e.runnerFor(cfg.RWR)
	if err != nil {
		return nil, err
	}
	k, _, err := runner.InferKCtx(ctx, queries, cfg, 0)
	if err != nil {
		return nil, err
	}
	cfg.K = k
	return e.queryWith(ctx, cfg, pt, queries, false)
}

// BatchOptions tunes QueryBatchCtx. The zero value is ready to use.
type BatchOptions struct {
	// PerQueryTimeout arms a deadline on each query set individually
	// (0 = none beyond the batch context). A set that times out reports
	// ErrDeadlineExceeded in its item without affecting the others.
	PerQueryTimeout time.Duration
	// Concurrency bounds how many query sets are in flight at once
	// (0 = the engine's worker bound). Individual solves are always
	// additionally bounded by the engine's worker pool.
	Concurrency int
}

// BatchItem is the outcome of one query set of a batch: exactly one of
// Result and Err is non-nil.
type BatchItem struct {
	// Queries is the query set this item answers (a private copy).
	Queries []int
	// Result is the successful answer.
	Result *Result
	// Err is the per-set failure; other sets are unaffected.
	Err error
}

// QueryBatch answers many query sets concurrently; see DoBatch.
//
// Deprecated: use DoBatch.
func (e *Engine) QueryBatch(querySets [][]int) []BatchItem {
	return e.DoBatch(context.Background(), querySets)
}

// QueryBatchCtx answers many query sets concurrently against one
// config/partition snapshot; see DoBatch for the semantics.
//
// Deprecated: use DoBatch; BatchOptions map onto WithQueryTimeout and
// WithBatchConcurrency.
func (e *Engine) QueryBatchCtx(ctx context.Context, querySets [][]int, opts BatchOptions) []BatchItem {
	return e.doBatch(ctx, querySets, queryOptions{
		timeout:     opts.PerQueryTimeout,
		concurrency: opts.Concurrency,
	})
}

// recoverToError converts a panic on the public Engine boundary into an
// error wrapping ErrInternal, preserving the panic value in the message
// and counting the recovery in ceps_panics_recovered_total.
func (e *Engine) recoverToError(err *error) {
	if r := recover(); r != nil {
		e.metrics.panics.Inc()
		*err = fmt.Errorf("%w: recovered panic: %v", ErrInternal, r)
	}
}
