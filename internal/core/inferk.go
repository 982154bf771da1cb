package core

import (
	"context"
	"fmt"
	"sort"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/rwr"
)

// DefaultSupportThreshold is the relative-support cutoff used by InferK:
// query j "supports" query i when the walk from j puts at least this
// fraction of i's self-score onto i.
const DefaultSupportThreshold = 0.01

// InferK chooses a K_softAND coefficient automatically when the user does
// not provide one — the paper's Future Work item 3 ("if the user does not
// provide the K_softAND coefficient, how can we infer the 'optimal' k").
//
// The inference works on the mutual-support structure of the query set
// itself. Query j supports query i when the random walk from j assigns
// node q_i a score that is a non-negligible fraction of q_i's own
// self-score:
//
//	r(j, q_i) ≥ τ · r(i, q_i)
//
// (τ = DefaultSupportThreshold when tau ≤ 0). The inferred k is the median
// over queries of (1 + number of supporters) — "how many queries does a
// typical query actually agree with, itself included". If the queries form
// one tight group, everybody supports everybody and k = Q (an AND query);
// if they split into communities of size s, each query is supported by its
// s−1 peers and k = s; if they are mutually unrelated, k = 1 (an OR
// query). These are exactly the regimes Fig. 1 of the paper illustrates.
//
// The returned supports slice holds each query's supporter count
// (including itself), which callers can surface for diagnostics.
func InferK(g *graph.Graph, queries []int, cfg Config, tau float64) (bestK int, supports []int, err error) {
	return InferKCtx(context.Background(), g, queries, cfg, tau)
}

// InferKCtx is InferK with cooperative cancellation of the underlying
// random-walk solves.
func InferKCtx(ctx context.Context, g *graph.Graph, queries []int, cfg Config, tau float64) (bestK int, supports []int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, nil, err
	}
	if err := checkQueries(g, queries); err != nil {
		return 0, nil, err
	}
	if len(queries) < 2 {
		return 0, nil, fmt.Errorf("%w: inferring k needs at least 2 queries, got %d", fault.ErrBadQuery, len(queries))
	}
	solver, err := rwr.NewSolver(g, cfg.RWR)
	if err != nil {
		return 0, nil, err
	}
	R, _, _, err := solveStep1(ctx, solver, queries, cfg, Serving{}, 0)
	if err != nil {
		return 0, nil, err
	}
	return inferKFromScores(R, queries, tau)
}

// InferK is the Runner variant of the package-level InferK, reusing the
// cached transition matrix (and, with serving attached, cached vectors).
func (r *Runner) InferK(queries []int, cfg Config, tau float64) (int, []int, error) {
	return r.InferKCtx(context.Background(), queries, cfg, tau)
}

// InferKCtx is the context-aware Runner variant of InferK.
func (r *Runner) InferKCtx(ctx context.Context, queries []int, cfg Config, tau float64) (int, []int, error) {
	if err := r.check(queries, cfg); err != nil {
		return 0, nil, err
	}
	if len(queries) < 2 {
		return 0, nil, fmt.Errorf("%w: inferring k needs at least 2 queries, got %d", fault.ErrBadQuery, len(queries))
	}
	R, _, _, err := solveStep1(ctx, r.solver, queries, cfg, r.sv, r.space)
	if err != nil {
		return 0, nil, err
	}
	return inferKFromScores(R, queries, tau)
}

// inferKFromScores runs the mutual-support inference over an
// already-computed score matrix.
func inferKFromScores(R [][]float64, queries []int, tau float64) (bestK int, supports []int, err error) {
	if tau <= 0 {
		tau = DefaultSupportThreshold
	}
	q := len(queries)
	supports = make([]int, q)
	for i := 0; i < q; i++ {
		self := R[i][queries[i]]
		count := 1 // a query always supports itself
		if self > 0 {
			for j := 0; j < q; j++ {
				if j != i && R[j][queries[i]] >= tau*self {
					count++
				}
			}
		}
		supports[i] = count
	}

	sorted := append([]int(nil), supports...)
	sort.Ints(sorted)
	bestK = sorted[q/2]
	if q%2 == 0 {
		// Even count: round the median toward the stricter (larger) side,
		// matching the paper's AND default.
		bestK = sorted[q/2]
	}
	if bestK < 1 {
		bestK = 1
	}
	if bestK > q {
		bestK = q
	}
	return bestK, supports, nil
}

// CePSAutoK infers the K_softAND coefficient with InferK (default
// threshold) and then answers the query with it. The chosen k is
// recoverable from the result's Combiner.
func CePSAutoK(g *graph.Graph, queries []int, cfg Config) (*Result, error) {
	k, _, err := InferK(g, queries, cfg, 0)
	if err != nil {
		return nil, err
	}
	cfg.K = k
	return CePS(g, queries, cfg)
}
