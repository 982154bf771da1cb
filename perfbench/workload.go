package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ceps"
)

// env is one set-up instance of a workload: the dataset, the engine and, on
// fast, the partitioning it serves from.
type env struct {
	sp  spec
	ds  *ceps.Dataset
	pt  *ceps.Partitioned
	eng *ceps.Engine
}

// setupTimes are the phases of one set-up; total is what setup_s reports.
type setupTimes struct {
	generate, engine, prepare, partition, warmup time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.generate + t.engine + t.prepare + t.partition + t.warmup
}

func (sp spec) options(ds *ceps.Dataset) []ceps.Option {
	var opts []ceps.Option
	if sp.cache {
		opts = append(opts, ceps.WithCache(cacheBytes))
	}
	if sp.replace {
		opts = append(opts, ceps.WithBipartite(ds.Papers))
	}
	return opts
}

// build generates the dataset and assembles the engine, timing each phase
// under a set-up span (trace 0).
func build(sp spec, rec *recorder) (*env, setupTimes, error) {
	e := &env{sp: sp}
	var t setupTimes
	var err error
	if t.generate, err = rec.timed(0, 0, "dblp.generate", "dblp", false, func() (err error) {
		e.ds, err = ceps.GenerateDBLP(sp.dblpConfig())
		return err
	}); err != nil {
		return nil, t, err
	}
	if err = e.engineUp(rec, &t); err != nil {
		return nil, t, err
	}
	return e, t, nil
}

// engineUp builds a fresh engine over the env's dataset (re-partitioning
// only when the env has no partitioning yet) and prepares it.
func (e *env) engineUp(rec *recorder, t *setupTimes) error {
	var err error
	if t.engine, err = rec.timed(0, 0, "ceps.NewEngine", "ceps", false, func() (err error) {
		e.eng, err = ceps.NewEngine(e.ds.Graph, e.sp.options(e.ds)...)
		return err
	}); err != nil {
		return err
	}
	if t.prepare, err = rec.timed(0, 0, "rwr.prepare", "rwr", false, e.eng.Prepare); err != nil {
		return err
	}
	if e.sp.parts > 0 && e.pt == nil {
		if t.partition, err = rec.timed(0, 0, "partition.PrePartition", "partition", false, func() (err error) {
			e.pt, err = ceps.PrePartition(e.ds.Graph, e.sp.parts, ceps.PartitionOptions{Seed: partSeed})
			return err
		}); err != nil {
			return err
		}
	}
	if e.pt != nil {
		e.eng.SetPartitioned(e.pt)
	}
	return nil
}

// warmUp answers the warm-up items untimed and unchecked by the benchmark:
// on hot that fills the cache with the whole working set.
func (e *env) warmUp(in *inputs, rec *recorder, t *setupTimes) error {
	var err error
	t.warmup, err = rec.timed(0, 0, "ceps.warmup", "ceps", false, func() error {
		for _, it := range in.Warm {
			if err := e.ask(it); err != nil {
				return fmt.Errorf("warm-up query %v: %w", it.Nodes, err)
			}
		}
		return nil
	})
	return err
}

func (e *env) ask(it item) error {
	ctx := context.Background()
	var err error
	if e.sp.replace {
		_, err = e.eng.ReplaceSubteam(ctx, it.Nodes, replaceOpts(it)...)
	} else {
		_, err = e.eng.Do(ctx, it.Nodes)
	}
	return err
}

// replaceOpts: one departing member, the default two-hop pool and cap, and
// the whole capped pool ranked so the held-out author's rank is known.
func replaceOpts(it item) []ceps.ReplaceOption {
	return []ceps.ReplaceOption{ceps.WithDeparting(it.Depart), ceps.WithReplaceTopN(-1)}
}

func (e *env) close() {
	if e.eng != nil {
		e.eng.Close()
	}
	e.eng = nil
}

// releaseMemory returns the garbage of a finished set-up to the OS, so each
// set-up (and the timed phase after the last) starts from the same heap.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// outcome is what one timed query left behind. Every field is stored at
// the query's index, so aggregates do not depend on completion order.
type outcome struct {
	lat      time.Duration
	err      error
	stages   ceps.StageTimings
	walks    int
	fallback bool
	// CePS answers.
	nodes        []int
	nratio       float64
	dests, paths int
	// Replace answers: 1-based rank of the held-out author, 0 for ∞.
	rank, pool int
}

// pass is one closed-loop run over the timed items.
type pass struct {
	wall    time.Duration
	out     []outcome
	kept    []*ceps.Result        // CePS answers of the first keep items, for replays
	keptRep []*ceps.ReplaceResult // replace answers of the first keep items
	allocB  uint64
	gcPause time.Duration
}

func (p *pass) failed() int {
	n := 0
	for _, o := range p.out {
		if o.err != nil {
			n++
		}
	}
	return n
}

func (p *pass) latenciesMS() []float64 {
	xs := make([]float64, len(p.out))
	for i, o := range p.out {
		xs[i] = ms(o.lat)
	}
	return xs
}

// run sends the timed items from sp.clients closed-loop clients: each
// takes the next unsent item as soon as its previous query returns. With a
// recorder, each query gets a root span and its stage spans.
func (e *env) run(items []item, rec *recorder, keep int) *pass {
	keep = min(keep, len(items))
	p := &pass{out: make([]outcome, len(items))}
	if e.sp.replace {
		p.keptRep = make([]*ceps.ReplaceResult, keep)
	} else {
		p.kept = make([]*ceps.Result, keep)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for c := 0; c < e.sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				p.out[i] = e.one(i, items[i], rec, p)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return p
}

// one answers and checks item i. Validation runs after the latency is
// taken, so it never counts toward it.
func (e *env) one(i int, it item, rec *recorder, p *pass) outcome {
	ctx := context.Background()
	var o outcome
	var root int
	t0 := time.Now()
	if e.sp.replace {
		res, err := e.eng.ReplaceSubteam(ctx, it.Nodes, replaceOpts(it)...)
		t1 := time.Now()
		o.lat = t1.Sub(t0)
		if err != nil {
			o.err = err
			return o
		}
		root = rec.add(i+1, 0, "ceps.ReplaceSubteam", "ceps", t0, t1, false)
		stageSpans(rec, i+1, root, t0, []stageSpan{
			{"core.replace_pool", "core", res.Stages.Partition},
			{"rwr.solve", "rwr", res.Stages.Solve},
			{"core.replace_blend", "core", res.Stages.Combine},
		})
		o.stages = res.Stages
		o.walks = res.Stages.CacheHits + res.Stages.CacheMisses
		o.pool = res.PoolSize
		o.rank, o.err = checkReplace(it.Nodes, it.HeldOut, res)
		if i < len(p.keptRep) {
			p.keptRep[i] = res
		}
		return o
	}
	res, err := e.eng.Do(ctx, it.Nodes)
	t1 := time.Now()
	o.lat = t1.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	root = rec.add(i+1, 0, "ceps.Do", "ceps", t0, t1, false)
	stageSpans(rec, i+1, root, t0, []stageSpan{
		{"core.partition", "core", res.Stages.Partition},
		{"rwr.solve", "rwr", res.Stages.Solve},
		{"score.combine", "score", res.Stages.Combine},
		{"extract.extract", "extract", res.Stages.Extract},
	})
	o.stages = res.Stages
	o.walks = len(res.RWRDiagnostics)
	o.fallback = res.Fallback != nil
	o.nodes = res.Subgraph.Nodes
	o.nratio = res.NRatio()
	o.dests = len(res.Extraction.Destinations)
	o.paths = res.Extraction.PathsFound
	o.err = checkCePS(e.ds.Graph, it.Nodes, e.eng.Config().Budget, res)
	if i < len(p.kept) {
		p.kept[i] = res
	}
	return o
}

type stageSpan struct {
	name, layer string
	d           time.Duration
}

// stageSpans lays a query's stage timings end to end from its start, as
// children of its root span.
func stageSpans(rec *recorder, trace, root int, at time.Time, stages []stageSpan) {
	if rec == nil {
		return
	}
	for _, s := range stages {
		if s.d > 0 {
			rec.add(trace, root, s.name, s.layer, at, at.Add(s.d), false)
		}
		at = at.Add(s.d)
	}
}
