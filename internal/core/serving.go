package core

import (
	"context"
	"sync/atomic"
	"time"

	"ceps/internal/obs"
	"ceps/internal/rwr"
)

// Serving bundles the shared serving-layer state an Engine threads through
// the query paths: the per-source score cache, the bounded solve pool, the
// coalescer and the precompute tier. The zero value disables all of them
// (one plain panel solve per query, unbounded by a pool).
type Serving struct {
	// Cache holds per-source RWR score vectors keyed by source node and a
	// space fingerprint covering the walk config and work-graph identity.
	Cache *rwr.ScoreCache
	// Pool bounds how many random-walk solves run concurrently across all
	// queries and batches sharing it.
	Pool *rwr.Pool
	// Coalescer, when non-nil, merges concurrent cache misses into shared
	// blocked solve panels in front of the pool. It requires a Cache (the
	// fan-out rides the single-flight entries) and is ignored without one.
	Coalescer *rwr.Coalescer
	// Artifacts, when non-nil, is the persisted precompute tier consulted
	// between the cache and the iterative solver: cache misses whose key
	// space is bound to an on-disk artifact (see BindArtifacts) become one
	// row read instead of a power iteration.
	Artifacts rwr.ArtifactReader
}

// solveStep1 is the core side of the one Step 1 funnel: every iterative
// solve of every query type — plain and Fast CePS, ReplaceSubteam, top-N
// ranking, k inference — goes through it. It opens the "solve" span,
// resolves the query set through the rwr resolver with whatever serving
// state sv carries (a zero Serving solves one uncached, unbounded panel),
// and returns the solve fields of StageTimings: Solve, SolveKernel
// ("blocked", or "artifact" when the precompute tier served every miss),
// SolveSweeps, the cache and artifact counts, and the coalescer's panel
// width and wait. space is the cache key space of solver's graph under
// cfg.RWR; it is only read when sv carries a cache or an artifact tier.
func solveStep1(ctx context.Context, solver *rwr.Solver, queries []int, cfg Config, sv Serving, space uint64) ([][]float64, []rwr.Diagnostics, StageTimings, error) {
	solveCtx, span := obs.StartSpan(ctx, "solve")
	defer span.End()
	span.SetAttr(obs.Int("queries", len(queries)), obs.Int("nodes", solver.N()))
	opt := rwr.ServeOptions{Workers: blockedWorkers(cfg.Workers), Artifacts: sv.Artifacts}
	if !cfg.NoCoalesce {
		opt.Coalesce = sv.Coalescer
	}
	start := time.Now()
	R, diags, stats, err := solver.Resolve(solveCtx, queries, sv.Cache, space, sv.Pool, opt)
	st := StageTimings{Solve: time.Since(start)}
	if err != nil {
		span.SetError(err)
		return nil, nil, st, err
	}
	st.SolveKernel = "blocked"
	if stats.ArtifactHits > 0 && stats.ArtifactHits == stats.Misses {
		st.SolveKernel = "artifact"
	}
	st.SolveSweeps = sumSweeps(diags)
	st.CacheHits, st.CacheMisses, st.ArtifactHits = stats.Hits, stats.Misses, stats.ArtifactHits
	st.CoalescePanelWidth, st.CoalesceWait = stats.CoalescedWidth, stats.CoalesceWait
	span.SetAttr(obs.Str("kernel", st.SolveKernel), obs.Int("sweeps", st.SolveSweeps),
		obs.Int("cache_hits", stats.Hits), obs.Int("cache_misses", stats.Misses),
		obs.Int("artifact_hits", stats.ArtifactHits))
	if stats.CoalescedWidth > 0 {
		span.AddEvent("coalesce_wait",
			obs.Int("panel_width", stats.CoalescedWidth),
			obs.F64("wait_ms", 1e3*stats.CoalesceWait.Seconds()))
	}
	return R, diags, st, nil
}

// blockedWorkers maps cfg.Workers onto the blocked kernel's intra-sweep
// worker count: sequential settings (0 or 1) stay serial, negative means
// GOMAXPROCS (the kernel's 0), and positive counts carry over.
func blockedWorkers(w int) int {
	switch {
	case w < 0:
		return 0
	case w == 0:
		return 1
	default:
		return w
	}
}

// partitionedID hands each PrePartition-built state a unique non-zero
// identity, so cached vectors solved on one partition's induced unions can
// never be confused with another's (even when the part-id sets coincide).
var partitionedID atomic.Uint64

// fullGraphSpace is the cache key space for full-graph solves under cfg.
// Graph identity is implicit: a cache is owned by one Engine over one
// graph, and unions (the only other solve target) always hash a non-zero
// partition identity.
func fullGraphSpace(cfg rwr.Config) uint64 {
	return rwr.Space(cfg.Fingerprint(), 0, nil)
}

// unionSpace is the cache key space for solves on the induced union of the
// given parts of a specific partitioned state. Node ids inside a union are
// deterministic for a fixed partition and part set (Induced assigns them
// in sorted original-id order), which is what makes per-source caching
// across queries sound.
func unionSpace(cfg rwr.Config, ptID uint64, parts []int) uint64 {
	return rwr.Space(cfg.Fingerprint(), ptID, parts)
}
