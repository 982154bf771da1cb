package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"ceps"
)

// small shrinks a workload's graph so the tests run in seconds; the input
// recipe and engine options are unchanged.
func small(name string) spec {
	sp := specs[name]
	sp.scale = 0.25
	return sp
}

func dataset(t *testing.T, sp spec) *ceps.Dataset {
	t.Helper()
	ds, err := ceps.GenerateDBLP(sp.dblpConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInputsDeterministic(t *testing.T) {
	for _, name := range []string{"cold", "hot", "replace", "fast"} {
		sp := small(name)
		ds := dataset(t, sp)
		a, err := makeInputs(sp, ds, 7, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := makeInputs(sp, dataset(t, sp), 7, 5)
		c, _ := makeInputs(sp, ds, 8, 5)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two different input digests", name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
		if want := sp.count(5); len(a.Timed) != want {
			t.Errorf("%s: %d timed queries, want %d", name, len(a.Timed), want)
		}
	}
}

func TestColdSourcesNeverRepeat(t *testing.T) {
	for _, name := range []string{"cold", "fast"} {
		sp := specs[name]
		ds := dataset(t, sp)
		in, err := makeInputs(sp, ds, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, it := range append(append([]item(nil), in.Warm...), in.Timed...) {
			for _, u := range it.Nodes {
				if seen[u] {
					t.Fatalf("%s: source %d repeats", name, u)
				}
				seen[u] = true
			}
		}
	}
}

// TestHotFitsCache runs the real hot workload briefly: after the warm-up
// every timed source must be a cache hit, with nothing evicted.
func TestHotFitsCache(t *testing.T) {
	sp := specs["hot"]
	e, in, _, err := setUp(sp, 5, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sources := map[int]bool{}
	for _, it := range in.Warm {
		for _, u := range it.Nodes {
			sources[u] = true
		}
	}
	if need := int64(len(sources)) * int64(e.ds.Graph.N()) * 8; need > cacheBytes {
		t.Fatalf("working set needs %d bytes of score vectors, cache holds %d", need, cacheBytes)
	}
	before, _ := e.eng.CacheStats()
	p := e.run(in.Timed, nil, 0)
	after, _ := e.eng.CacheStats()
	if err := cacheInvariant(sp, before, after); err != nil {
		t.Fatal(err)
	}
	if got, want := after.Hits-before.Hits, uint64(querySize*len(in.Timed)); got != want {
		t.Fatalf("%d cache hits, want %d", got, want)
	}
	if p.failed() != 0 {
		t.Fatalf("%d answers failed their checks", p.failed())
	}
}

// TestCountsRepeat runs each workload's traced measurement twice at one
// seed: the quality and count metrics must come out bit-identical.
func TestCountsRepeat(t *testing.T) {
	exact := []string{
		"nratio_mean", "relratio_mean", "mrr", "hits10_rate",
		"rwr.walks_per_query", "rwr.sweeps_per_query", "rwr.cache_hit_ratio",
		"extract.destinations_per_query", "extract.paths_per_query", "extract.subgraph_nodes_mean",
		"core.replace_pool_size_mean", "core.fallback_share",
	}
	for _, name := range []string{"cold", "hot", "replace", "fast"} {
		sp := small(name)
		seconds := 0.5
		if sp.replace {
			seconds = 3
		}
		var runs [2]*result
		for i := range runs {
			var out bytes.Buffer
			res, err := perLayer(sp, 11, seconds, t.TempDir()+"/trace.jsonl", &out, &out)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = res
		}
		for _, k := range exact {
			a, okA := runs[0].Metrics[k]
			b, okB := runs[1].Metrics[k]
			if okA != okB || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
				t.Errorf("%s: %s differs between runs: %v vs %v", name, k, a.Value, b.Value)
			}
		}
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json lists.
func benchmarkJSON(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	return names(doc.Workloads), names(doc.EndToEnd), names(doc.PerLayer)
}

// lastResult parses the JSON result a run prints as its last line.
func lastResult(t *testing.T, stdout string) (keys []string, res result) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, res
}

// TestOutputMatchesBenchmarkJSON runs every listed workload briefly in both
// modes and checks the result line carries exactly the metrics
// BENCHMARK.json names.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	workloads, endToEnd, perLayer := benchmarkJSON(t)
	for _, w := range workloads {
		for trace, want := range map[string][]string{"0": endToEnd, "1": perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w, "--seed", "2", "--seconds", "0.3", "--trace", trace, "--trace-dir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s --trace %s: exit %d: %s", w, trace, code, errOut.String())
			}
			keys, res := lastResult(t, out.String())
			if strings.Join(keys, ",") != strings.Join(want, ",") {
				t.Errorf("%s --trace %s: metrics %v, want %v", w, trace, keys, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %s: %+v", w, trace, res)
			}
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if out.Len() != 0 && strings.Contains(out.String(), "{") {
		t.Fatalf("a usage error printed a result: %q", out.String())
	}
}

// pathGraph is 0-1-2-3 plus an isolated edge 4-5.
func pathGraph(t *testing.T) *ceps.Graph {
	t.Helper()
	g, err := ceps.FromEdges(6, []ceps.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 4, V: 5, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func answer(nodes ...int) *ceps.Result {
	return &ceps.Result{Subgraph: &ceps.Subgraph{Nodes: nodes}}
}

func TestCheckCePS(t *testing.T) {
	g := pathGraph(t)
	cases := []struct {
		name    string
		queries []int
		budget  int
		res     *ceps.Result
		ok      bool
	}{
		{"connected", []int{0, 3}, 2, answer(0, 3, 1, 2), true},
		{"query missing", []int{0, 3}, 2, answer(0, 1, 2), false},
		{"disconnected", []int{0, 4}, 2, answer(0, 4, 1), false},
		{"over budget", []int{0, 3}, 1, answer(0, 3, 1, 2), false},
		{"duplicate node", []int{0, 1}, 2, answer(0, 1, 1), false},
		{"no subgraph", []int{0}, 2, &ceps.Result{}, false},
	}
	for _, c := range cases {
		err := checkCePS(g, c.queries, c.budget, c.res)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func ranking(nodesScores ...float64) *ceps.ReplaceResult {
	res := &ceps.ReplaceResult{}
	for i := 0; i < len(nodesScores); i += 2 {
		res.Replacements = append(res.Replacements, ceps.Replacement{Node: int(nodesScores[i]), Score: nodesScores[i+1]})
	}
	return res
}

func TestCheckReplace(t *testing.T) {
	team := []int{1, 2, 3, 4}
	cases := []struct {
		name string
		res  *ceps.ReplaceResult
		rank int
		ok   bool
	}{
		{"held out second", ranking(9, 1, 7, 0.5, 8, 0.5), 2, true},
		{"held out outside the capped pool", ranking(9, 1, 8, 0.5), 0, true},
		{"team member ranked", ranking(9, 1, 4, 0.5), 0, false},
		{"scores rise", ranking(9, 0.5, 7, 1), 0, false},
		{"candidate twice", ranking(9, 1, 9, 1), 0, false},
	}
	for _, c := range cases {
		rank, err := checkReplace(team, 7, c.res)
		if (err == nil) != c.ok || (c.ok && rank != c.rank) {
			t.Errorf("%s: rank %d, err %v; want rank %d, ok=%t", c.name, rank, err, c.rank, c.ok)
		}
	}
}
