package core

import (
	"context"
	"sort"

	"ceps/internal/graph"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// RankedNode is a node with its combined closeness score r(Q, j).
type RankedNode struct {
	Node  int
	Score float64
}

// TopCenterPieces runs Steps 1–2 of the pipeline only — individual RWR
// scores and combination — and returns the topN highest-scored non-query
// nodes. It answers "who are the center-piece candidates" without paying
// for subgraph extraction, which is what callers ranking or paginating
// candidates (rather than displaying a connection subgraph) want.
func TopCenterPieces(g *graph.Graph, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	return TopCenterPiecesCtx(context.Background(), g, queries, cfg, topN)
}

// TopCenterPiecesCtx is TopCenterPieces with cooperative cancellation of
// the underlying random-walk solves.
func TopCenterPiecesCtx(ctx context.Context, g *graph.Graph, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkQueries(g, queries); err != nil {
		return nil, err
	}
	solver, err := rwr.NewSolver(g, cfg.RWR)
	if err != nil {
		return nil, err
	}
	R, _, _, err := solveStep1(ctx, solver, queries, cfg, Serving{}, 0)
	if err != nil {
		return nil, err
	}
	return rankCenterPieces(R, queries, cfg, topN)
}

// TopCenterPieces is the Runner variant reusing the cached solver.
func (r *Runner) TopCenterPieces(queries []int, cfg Config, topN int) ([]RankedNode, error) {
	return r.TopCenterPiecesCtx(context.Background(), queries, cfg, topN)
}

// TopCenterPiecesCtx is the context-aware Runner variant; with serving
// state attached, the per-query vectors come from the shared cache.
func (r *Runner) TopCenterPiecesCtx(ctx context.Context, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	if err := r.check(queries, cfg); err != nil {
		return nil, err
	}
	R, _, _, err := solveStep1(ctx, r.solver, queries, cfg, r.sv, r.space)
	if err != nil {
		return nil, err
	}
	return rankCenterPieces(R, queries, cfg, topN)
}

// rankCenterPieces is Step 2 plus ranking: combine the score matrix and
// return the topN non-query nodes by combined score.
func rankCenterPieces(R [][]float64, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	if topN <= 0 {
		topN = 10
	}
	combined, err := score.CombineNodes(R, cfg.Combiner(len(queries)))
	if err != nil {
		return nil, err
	}
	isQuery := make(map[int]bool, len(queries))
	for _, q := range queries {
		isQuery[q] = true
	}
	ranked := make([]RankedNode, 0, len(combined)-len(queries))
	for j, s := range combined {
		if !isQuery[j] && s > 0 {
			ranked = append(ranked, RankedNode{Node: j, Score: s})
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Score > ranked[b].Score })
	if len(ranked) > topN {
		ranked = ranked[:topN]
	}
	return ranked, nil
}
