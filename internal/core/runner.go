package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/rwr"
)

// Runner answers repeated CePS queries over one graph while reusing the
// normalized transition matrix. CePS builds the matrix per call — correct,
// and what the experiments time, since the paper's response time includes
// score calculation from scratch — but a long-lived service answering many
// queries should pay the O(M) normalization once. A Runner is safe for
// concurrent use: queries only read the shared solver, and the optional
// serving state (score cache + solve pool) is internally synchronized.
type Runner struct {
	g      *graph.Graph
	solver *rwr.Solver
	rwrCfg rwr.Config
	sv     Serving
	space  uint64 // cache key space for this runner's full-graph solves

	// Lazily built dense pre-solved inverse for exact candidate scoring
	// (ReplaceSubteam with Exact); nil until first requested. Guarded by
	// preOnce so concurrent exact queries build it once.
	preOnce sync.Once
	pre     *rwr.PreSolver
	preErr  error
}

// NewRunner materializes the transition matrix for g under the given RWR
// configuration.
func NewRunner(g *graph.Graph, rwrCfg rwr.Config) (*Runner, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", fault.ErrBadQuery)
	}
	solver, err := rwr.NewSolver(g, rwrCfg)
	if err != nil {
		return nil, err
	}
	return &Runner{g: g, solver: solver, rwrCfg: rwrCfg, space: fullGraphSpace(rwrCfg)}, nil
}

// WithServing attaches a shared score cache and solve pool; subsequent
// queries resolve Step 1 through them. Call before the Runner is shared
// between goroutines. It returns the Runner for chaining.
func (r *Runner) WithServing(sv Serving) *Runner {
	r.sv = sv
	return r
}

// Graph returns the runner's graph.
func (r *Runner) Graph() *graph.Graph { return r.g }

// RWRConfig returns the walk configuration the cached matrix was built for.
func (r *Runner) RWRConfig() rwr.Config { return r.rwrCfg }

// Query answers a CePS query with the cached solver. cfg.RWR must equal
// the configuration the Runner was built with — the walk parameters are
// baked into the cached matrix.
func (r *Runner) Query(queries []int, cfg Config) (*Result, error) {
	return r.QueryCtx(context.Background(), queries, cfg)
}

// QueryCtx is Query with cooperative cancellation: the cached-matrix fast
// path checks ctx at every power-iteration sweep and EXTRACT step, so a
// deadline aborts the query promptly even on large graphs.
func (r *Runner) QueryCtx(ctx context.Context, queries []int, cfg Config) (*Result, error) {
	if err := r.check(queries, cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runPipelineWith(ctx, r.solver, r.g, queries, cfg, r.sv, r.space)
	if err != nil {
		return nil, err
	}
	res.Queries = append([]int(nil), queries...)
	res.WorkQueries = append([]int(nil), queries...)
	res.Elapsed = time.Since(start)
	return res, nil
}

// check validates a query against the runner's graph and baked-in RWR
// configuration.
func (r *Runner) check(queries []int, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.RWR != r.rwrCfg {
		return fmt.Errorf("%w: runner was built with RWR config %+v, query asks for %+v (build a new Runner)", fault.ErrBadConfig, r.rwrCfg, cfg.RWR)
	}
	return checkQueries(r.g, queries)
}
