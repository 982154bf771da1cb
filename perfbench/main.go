// Command perfbench is the repository's end-to-end benchmark. It drives the
// public ceps API (GenerateDBLP, NewEngine, Prepare, Do, ReplaceSubteam,
// PrePartition + SetPartitioned) on one of four fixed-work workloads, checks
// every answer, and prints one JSON result as its last line of output:
//
//	perfbench --workload cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload's timed phase twice, untraced and then traced, and reports
// the per-layer metrics, writing its spans under --trace-dir. See README.md
// for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ceps"
)

// setups is how many times an untraced run sets the workload up; setup_s
// is the median.
const setups = 3

// deadline bounds a whole run; past it the run aborts without a result.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold, hot, replace or fast")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "sizes the fixed work: queries = per-second rate × seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cold|hot|replace|fast, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", sp.name, *seed, *seconds, *trace)
	var res *result
	var err error
	if *trace == 0 {
		res, err = endToEnd(sp, *seed, *seconds, stdout, stderr)
	} else {
		path := filepath.Join(*traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, *seed))
		res, err = perLayer(sp, *seed, *seconds, path, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", k, m.Value)
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// describe prints what the run is about to measure: the workload's set-up,
// the graph's fingerprint (results from different graphs do not compare)
// and the digest of the inputs (equal seeds give equal digests).
func describe(w io.Writer, e *env, in *inputs) {
	sp, g := e.sp, e.ds.Graph
	fmt.Fprintf(w, "# spec: scale=%g clients=%d cache=%t partitions=%d replace=%t timed=%d warm=%d\n",
		sp.scale, sp.clients, sp.cache, sp.parts, sp.replace, len(in.Timed), len(in.Warm))
	fmt.Fprintf(w, "# graph: nodes=%d edges=%d fingerprint=%016x\n", g.N(), g.M(), g.Fingerprint())
	fmt.Fprintf(w, "# inputs: sha256=%s\n", in.digest())
}

// setUp builds the workload and warms it up, recording spans into rec.
// inputs are drawn from the first dataset built (in == nil).
func setUp(sp spec, seed int64, seconds float64, in *inputs, rec *recorder) (*env, *inputs, setupTimes, error) {
	e, t, err := build(sp, rec)
	if err != nil {
		return nil, nil, t, err
	}
	if in == nil {
		if in, err = makeInputs(sp, e.ds, seed, seconds); err != nil {
			e.close()
			return nil, nil, t, err
		}
	}
	if err := e.warmUp(in, rec, &t); err != nil {
		e.close()
		return nil, nil, t, err
	}
	return e, in, t, nil
}

// endToEnd sets the workload up `setups` times, then runs the timed phase
// once on the last set-up, untraced.
func endToEnd(sp spec, seed int64, seconds float64, stdout, stderr io.Writer) (*result, error) {
	var (
		e      *env
		in     *inputs
		setupS []float64
	)
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
			e = nil
			releaseMemory()
		}
		var t setupTimes
		var err error
		if e, in, t, err = setUp(sp, seed, seconds, in, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, t.total().Seconds())
	}
	defer e.close()
	describe(stdout, e, in)
	before, _ := e.eng.CacheStats()
	p := e.run(in.Timed, nil, 0)
	after, _ := e.eng.CacheStats()
	res := newResult(p, stderr)
	if err := cacheInvariant(sp, before, after); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	lat := p.latenciesMS()
	fmt.Fprintf(stdout, "# timed: %d queries in %.3f s; latency p50 %.2f ms, p90 %.2f ms over %d samples; set-ups %v s\n",
		len(lat), p.wall.Seconds(), median(lat), quantile(lat, 0.9), len(lat), setupS)
	res.Metrics = map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"qps":            {float64(len(p.out)-res.Failed) / p.wall.Seconds(), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"success_rate":   {float64(len(p.out)-res.Failed) / float64(len(p.out)), "ratio"},
		"rss_peak_mb":    {peakRSSMB(), "MiB"},
	}
	return res, nil
}

func newResult(p *pass, stderr io.Writer) *result {
	res := &result{Attempted: len(p.out), Failed: p.failed()}
	res.Correct = res.Failed == 0
	shown := 0
	for i, o := range p.out {
		if o.err != nil && shown < 5 {
			fmt.Fprintf(stderr, "perfbench: query %d failed: %v\n", i, o.err)
			shown++
		}
	}
	return res
}

// cacheInvariant checks the cache traffic each workload is built for: on
// hot every timed source is a hit and nothing is evicted; on cold and fast
// no source repeats, so nothing is a hit.
func cacheInvariant(sp spec, before, after ceps.CacheStats) error {
	if !sp.cache {
		return nil
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if sp.hotSets > 0 {
		if misses != 0 || after.Evictions != 0 {
			return fmt.Errorf("hot: %d cache misses and %d evictions in the timed phase, want none", misses, after.Evictions)
		}
		return nil
	}
	if hits != 0 {
		return fmt.Errorf("%s: %d cache hits on sources that never repeat", sp.name, hits)
	}
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer sets the workload up once, runs the timed phase untraced (for
// the tracing overhead and the allocation figures), then again traced on a
// fresh engine, replays the layers on the first answers, and reports the
// per-layer metrics.
func perLayer(sp spec, seed int64, seconds float64, path string, stdout, stderr io.Writer) (*result, error) {
	rec := newRecorder()
	e, in, setup, err := setUp(sp, seed, seconds, nil, rec)
	if err != nil {
		return nil, err
	}
	describe(stdout, e, in)
	plain := e.run(in.Timed, nil, 0)

	// Cold and fast fill the cache as they go, so the traced pass needs a
	// fresh engine; hot is warmed up again to the same state.
	e.close()
	releaseMemory()
	var again setupTimes
	if err := e.engineUp(nil, &again); err != nil {
		return nil, err
	}
	if err := e.warmUp(in, nil, &again); err != nil {
		return nil, err
	}
	defer e.close()
	keep := 16
	if sp.replace {
		keep = 3
	}
	traced := e.run(in.Timed, rec, keep)

	res := newResult(traced, stderr)
	if err := sameCounts(plain, traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	var rp *replays
	if sp.replace {
		rp, err = replayReplace(traced.keptRep, e.ds.Graph, e.eng.Config(), rec)
	} else {
		rp, err = replayCePS(traced.kept, e.eng.Config(), rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
		rp = &replays{}
	}
	var rel []float64
	if sp.parts > 0 {
		if rel, err = relRatios(e.ds.Graph, in.Timed, traced.out); err != nil {
			return nil, err
		}
	}
	if err := rec.write(path); err != nil {
		return nil, err
	}
	m, err := layerMetrics(sp, setup, plain, traced, rp, rel, rec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		res.Correct = false
	}
	res.Metrics = m
	fmt.Fprintf(stdout, "# trace: %d spans written to %s; untraced p50 %.2f ms, traced p50 %.2f ms\n",
		len(rec.spans), path, m["bench.untraced_p50_ms"].Value, m["bench.traced_p50_ms"].Value)
	layers := rec.layerSelfMS()
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		fmt.Fprintf(stdout, "# self time: %-9s %12.2f ms\n", l, layers[l])
	}
	return res, nil
}

// sameCounts checks that the untraced and traced passes did exactly the same
// work per query: the counts are properties of the inputs, not the timing.
func sameCounts(a, b *pass) error {
	for i := range a.out {
		x, y := a.out[i], b.out[i]
		if x.walks != y.walks || x.stages.SolveSweeps != y.stages.SolveSweeps || x.dests != y.dests ||
			x.paths != y.paths || len(x.nodes) != len(y.nodes) || x.rank != y.rank || x.pool != y.pool ||
			math.Float64bits(x.nratio) != math.Float64bits(y.nratio) {
			return fmt.Errorf("query %d did different work in the untraced and traced passes", i)
		}
	}
	return nil
}

// layerMetrics derives the per-layer metrics. Stage figures are means over
// the traced pass's answered queries; a layer the workload does not run
// reads 0.
func layerMetrics(sp spec, setup setupTimes, plain, traced *pass, rp *replays, rel []float64, rec *recorder) (map[string]metric, error) {
	var (
		partition, solve, combine, blend, extractMS, unattributed, doMS []float64
		walks, sweeps, dests, paths, subLen, nratio, pool, rr, hit10    []float64
		fallbacks, hits, lookups                                        float64
	)
	for _, o := range traced.out {
		if o.err != nil {
			continue
		}
		st := o.stages
		doMS = append(doMS, ms(o.lat))
		partition = append(partition, ms(st.Partition))
		solve = append(solve, ms(st.Solve))
		unattributed = append(unattributed, ms(o.lat-st.Partition-st.Solve-st.Combine-st.Extract))
		walks = append(walks, float64(o.walks))
		sweeps = append(sweeps, float64(st.SolveSweeps))
		hits += float64(st.CacheHits)
		lookups += float64(st.CacheHits + st.CacheMisses)
		if sp.replace {
			blend = append(blend, ms(st.Combine))
			pool = append(pool, float64(o.pool))
			r, h := 0.0, 0.0
			if o.rank > 0 {
				r = 1 / float64(o.rank)
				if o.rank <= 10 {
					h = 1
				}
			}
			rr = append(rr, r)
			hit10 = append(hit10, h)
			continue
		}
		combine = append(combine, ms(st.Combine))
		extractMS = append(extractMS, ms(st.Extract))
		dests = append(dests, float64(o.dests))
		paths = append(paths, float64(o.paths))
		subLen = append(subLen, float64(len(o.nodes)))
		nratio = append(nratio, o.nratio)
		if o.fallback {
			fallbacks++
		}
	}
	n := float64(len(doMS))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	untracedP50, tracedP50 := median(plain.latenciesMS()), median(traced.latenciesMS())
	m := map[string]metric{
		"dblp.generate_s":                {setup.generate.Seconds(), "s"},
		"rwr.prepare_s":                  {setup.prepare.Seconds(), "s"},
		"ceps.warmup_s":                  {setup.warmup.Seconds(), "s"},
		"ceps.do_ms_mean":                {mean(doMS), "ms"},
		"ceps.unattributed_ms_mean":      {mean(unattributed), "ms"},
		"ceps.alloc_mb_per_query":        {ratio(float64(plain.allocB)/(1<<20), float64(len(plain.out))), "MiB"},
		"ceps.gc_pause_ms":               {ms(plain.gcPause), "ms"},
		"core.partition_ms_mean":         {mean(partition), "ms"},
		"core.replace_pool_size_mean":    {mean(pool), "count"},
		"core.replace_blend_ms_mean":     {mean(blend), "ms"},
		"rwr.solve_ms_mean":              {mean(solve), "ms"},
		"rwr.walks_per_query":            {mean(walks), "count"},
		"rwr.sweeps_per_query":           {mean(sweeps), "count"},
		"rwr.cache_hit_ratio":            {ratio(hits, lookups), "ratio"},
		"rwr.rows_per_s":                 {ratio(rp.rows, rp.kernelS), "1/s"},
		"rwr.kernel_ms_mean":             {mean(rp.kernelMS), "ms"},
		"score.combine_ms_mean":          {mean(combine), "ms"},
		"score.combine_replay_ms_mean":   {mean(rp.combineMS), "ms"},
		"extract.extract_ms_mean":        {mean(extractMS), "ms"},
		"extract.extract_replay_ms_mean": {mean(rp.extractMS), "ms"},
		"extract.destinations_per_query": {mean(dests), "count"},
		"extract.paths_per_query":        {mean(paths), "count"},
		"extract.subgraph_nodes_mean":    {mean(subLen), "count"},
		"nratio_mean":                    {mean(nratio), "ratio"},
		"mrr":                            {mean(rr), "ratio"},
		"hits10_rate":                    {mean(hit10), "ratio"},
		"bench.untraced_p50_ms":          {untracedP50, "ms"},
		"bench.traced_p50_ms":            {tracedP50, "ms"},
		"bench.trace_overhead_pct":       {100 * (tracedP50/untracedP50 - 1), "%"},
	}
	if sp.parts > 0 {
		// Only fast serves from partitions; the other workloads do not
		// report these.
		m["partition.prepartition_s"] = metric{setup.partition.Seconds(), "s"}
		m["core.fallback_share"] = metric{ratio(fallbacks, n), "ratio"}
		m["relratio_mean"] = metric{mean(rel), "ratio"}
	}
	// The stage spans are laid end to end under each root span, so the
	// stage means plus the root's self time must give the mean latency.
	stages := mean(partition) + mean(solve) + mean(combine) + mean(blend) + mean(extractMS)
	if d := math.Abs(stages + mean(unattributed) - mean(doMS)); d > 1e-6 {
		return m, fmt.Errorf("stage means + unattributed differ from the mean latency by %g ms", d)
	}
	if d := math.Abs(rec.rootSelfMS() - mean(unattributed)); d > 1e-6 {
		return m, fmt.Errorf("root span self time differs from the unattributed time by %g ms", d)
	}
	return m, nil
}
