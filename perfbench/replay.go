package main

import (
	"context"
	"fmt"
	"math"

	"ceps"
	"ceps/internal/extract"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// replays holds the traced run's layer replays: each re-runs one layer on
// inputs a timed answer already used, outside the cache and the solve
// pool, under a replay span of that answer's trace. They run after the
// timed pass, so they never count toward a query's latency.
type replays struct {
	kernelMS, combineMS, extractMS []float64
	rows                           float64 // sweeps × work-graph nodes over all kernel replays
	kernelS                        float64
}

// replayCePS re-runs the blocked Step-1 kernel, the score combination and
// EXTRACT for each kept answer, and checks that each replay reproduces the
// answer bit for bit.
func replayCePS(kept []*ceps.Result, cfg ceps.Config, rec *recorder) (*replays, error) {
	ctx := context.Background()
	rp := &replays{}
	for i, res := range kept {
		if res == nil {
			continue
		}
		trace := i + 1
		q := res.WorkQueries
		var R [][]float64
		var diags []ceps.Diagnostics
		d, err := rec.timed(trace, 0, "rwr.kernel", "rwr", true, func() (err error) {
			R, diags, err = res.Solver.ScoresSetBlockedCtx(ctx, q, kernelWorkers(cfg))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("kernel replay of query %d: %w", i, err)
		}
		if !sameMatrix(R, res.R) {
			return nil, fmt.Errorf("kernel replay of query %d does not reproduce its scores", i)
		}
		rp.kernelMS = append(rp.kernelMS, ms(d))
		rp.kernelS += d.Seconds()
		for _, dg := range diags {
			rp.rows += float64(dg.Sweeps) * float64(res.WorkGraph.N())
		}

		var combined []float64
		d, err = rec.timed(trace, 0, "score.CombineNodes", "score", true, func() (err error) {
			combined, err = score.CombineNodes(res.R, res.Combiner)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("combine replay of query %d: %w", i, err)
		}
		if !sameMatrix([][]float64{combined}, [][]float64{res.Combined}) {
			return nil, fmt.Errorf("combine replay of query %d does not reproduce its scores", i)
		}
		rp.combineMS = append(rp.combineMS, ms(d))

		var ext *extract.Result
		d, err = rec.timed(trace, 0, "extract.ExtractCtx", "extract", true, func() (err error) {
			ext, err = extract.ExtractCtx(ctx, extract.Input{
				G: res.WorkGraph, Queries: q, R: res.R, Combined: res.Combined,
				K: cfg.EffectiveK(len(q)), Budget: cfg.Budget, MaxPathLen: cfg.MaxPathLen,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("extract replay of query %d: %w", i, err)
		}
		if !sameNodes(ext.Subgraph.Nodes, res.ToOrig, res.Subgraph.Nodes) {
			return nil, fmt.Errorf("extract replay of query %d does not reproduce its subgraph", i)
		}
		rp.extractMS = append(rp.extractMS, ms(d))
	}
	return rp, nil
}

// replayReplace re-runs the blocked kernel over each kept answer's whole
// candidate pool: the walks ReplaceSubteam's Solve stage serves.
func replayReplace(kept []*ceps.ReplaceResult, g *ceps.Graph, cfg ceps.Config, rec *recorder) (*replays, error) {
	solver, err := rwr.NewSolver(g, cfg.RWR)
	if err != nil {
		return nil, err
	}
	rp := &replays{}
	for i, res := range kept {
		if res == nil {
			continue
		}
		pool := make([]int, len(res.Replacements))
		for j, r := range res.Replacements {
			pool[j] = r.Node
		}
		if len(pool) != res.PoolSize {
			return nil, fmt.Errorf("trial %d ranked %d of its %d candidates", i, len(pool), res.PoolSize)
		}
		var diags []ceps.Diagnostics
		d, err := rec.timed(i+1, 0, "rwr.kernel", "rwr", true, func() (err error) {
			_, diags, err = solver.ScoresSetBlockedCtx(context.Background(), pool, kernelWorkers(cfg))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("kernel replay of trial %d: %w", i, err)
		}
		rp.kernelMS = append(rp.kernelMS, ms(d))
		rp.kernelS += d.Seconds()
		for _, dg := range diags {
			rp.rows += float64(dg.Sweeps) * float64(g.N())
		}
	}
	return rp, nil
}

// kernelWorkers is the row-parallelism the serving path gives one blocked
// solve under cfg (Config.Workers: 0 means one goroutine, negative means
// GOMAXPROCS), so a replay runs the kernel the way the query did.
func kernelWorkers(cfg ceps.Config) int {
	switch {
	case cfg.Workers < 0:
		return 0
	case cfg.Workers == 0:
		return 1
	}
	return cfg.Workers
}

func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sameNodes compares a subgraph in work-graph ids (mapped through toOrig,
// nil meaning identity) with one in original ids.
func sameNodes(work, toOrig, orig []int) bool {
	if len(work) != len(orig) {
		return false
	}
	for i, u := range work {
		if toOrig != nil {
			u = toOrig[u]
		}
		if u != orig[i] {
			return false
		}
	}
	return true
}

// relRatios answers each fast query again on a plain full-graph engine
// (untimed) and scores the fast subgraph against that answer (Eq. 19).
func relRatios(g *ceps.Graph, items []item, out []outcome) ([]float64, error) {
	eng, err := ceps.NewEngine(g)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	rel := make([]float64, 0, len(items))
	for i, it := range items {
		if out[i].err != nil {
			continue
		}
		full, err := eng.Do(context.Background(), it.Nodes)
		if err != nil {
			return nil, fmt.Errorf("full-graph answer of query %d: %w", i, err)
		}
		r, err := ceps.RelRatio(full, &ceps.Result{Subgraph: &ceps.Subgraph{Nodes: out[i].nodes}})
		if err != nil {
			return nil, err
		}
		rel = append(rel, r)
	}
	return rel, nil
}
