package extract

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/graph"
	"ceps/internal/partition"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// Equivalence of the downhill-DAG key-path DP with the reference
// implementation in reference_test.go: same paths, same ok, and whole
// EXTRACT results identical down to the bits of the captured goodness.

var allNorms = []rwr.NormKind{rwr.NormColumn, rwr.NormDegreePenalized, rwr.NormSymmetric}

// normRows solves the individual RWR rows of queries under norm and folds
// them with comb.
func normRows(t testing.TB, g *graph.Graph, queries []int, norm rwr.NormKind, comb score.Combiner) ([][]float64, []float64) {
	t.Helper()
	cfg := rwr.DefaultConfig()
	cfg.Norm = norm
	s, err := rwr.NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	R, err := s.ScoresSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := score.CombineNodes(R, comb)
	if err != nil {
		t.Fatal(err)
	}
	return R, combined
}

// scaleOneDBLP is the synthetic DBLP graph at scale 1 (4,000 authors).
func scaleOneDBLP(t testing.TB) *dblp.Dataset {
	t.Helper()
	ds, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// repositoryQueries draws query sets of 2–3 prolific authors, mixing
// same-community and cross-community sets.
func repositoryQueries(ds *dblp.Dataset) [][]int {
	r := ds.Repository
	return [][]int{
		{r[0][0], r[0][1]},
		{r[0][2], r[1][0], r[2][0]},
		{r[1][1], r[3][0], r[3][1]},
	}
}

// keyPathCase drives the new and the reference DP through the same calls:
// one downhill view per source, shared by destinations visited in the
// given order, so the view is built lazily, lowered and reused exactly as
// inside EXTRACT.
func keyPathCase(t *testing.T, label string, g *graph.Graph, ri, combined []float64, src int, dests []int, rng *rand.Rand) int {
	t.Helper()
	n := g.N()
	ref := newRefPathDP(g, n)
	dp := &pathDP{g: g}
	h := newDownhill(ri, src)
	inH := make([]bool, n)
	found := 0
	for call, pd := range dests {
		for v := range inH {
			inH[v] = rng.Intn(8) == 0
		}
		inH[src] = rng.Intn(6) != 0
		maxNew := 1 + rng.Intn(7)
		noSharing := rng.Intn(4) == 0
		want, wantOK := ref.keyPath(ri, combined, src, pd, inH, maxNew, noSharing)
		got, gotOK := dp.keyPath(h, combined, pd, inH, maxNew, noSharing)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s call %d (src %d, pd %d, maxNew %d, noSharing %v): got %v/%v, reference %v/%v",
				label, call, src, pd, maxNew, noSharing, got, gotOK, want, wantOK)
		}
		if gotOK {
			found++
		}
	}
	return found
}

// randomDests returns count destinations: the top of combined in
// descending order (EXTRACT's pick order, so the floor mostly falls) then
// random nodes (so it also rises and jumps).
func randomDests(combined []float64, count int, rng *rand.Rand) []int {
	order := make([]int, len(combined))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return combined[order[a]] > combined[order[b]] })
	dests := append([]int(nil), order[:min(count/2, len(order))]...)
	for len(dests) < count {
		dests = append(dests, rng.Intn(len(combined)))
	}
	return dests
}

func TestKeyPathMatchesReferenceRandom(t *testing.T) {
	found, calls := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{40, 300, 1500}[seed%3]
		g := randomGraph(t, n, 2*n, seed)
		queries := []int{0, n / 3, n - 1}
		for _, norm := range allNorms {
			R, combined := normRows(t, g, queries, norm, score.AND{})
			for i, q := range queries {
				dests := randomDests(combined, 60, rng)
				found += keyPathCase(t, fmt.Sprintf("seed %d %v source %d", seed, norm, i), g, R[i], combined, q, dests, rng)
				calls += len(dests)
			}
		}
		// Coarsely quantized rows tie often; ties must break exactly as
		// the reference's stable sort over ascending ids breaks them.
		ri := make([]float64, n)
		combined := make([]float64, n)
		for v := range ri {
			ri[v] = float64(rng.Intn(6)) / 6
			combined[v] = float64(rng.Intn(4)) / 4
		}
		for _, q := range queries {
			ri[q] = 1
			dests := randomDests(combined, 60, rng)
			found += keyPathCase(t, fmt.Sprintf("seed %d quantized source %d", seed, q), g, ri, combined, q, dests, rng)
			calls += len(dests)
		}
	}
	if found < calls/4 {
		t.Fatalf("only %d of %d key-path calls found a path; the comparison is too weak", found, calls)
	}
}

func TestKeyPathMatchesReferenceDBLP(t *testing.T) {
	ds := scaleOneDBLP(t)
	rng := rand.New(rand.NewSource(7))
	found, calls := 0, 0
	for _, queries := range repositoryQueries(ds) {
		R, combined := normRows(t, ds.Graph, queries, rwr.NormDegreePenalized, score.AND{})
		for i, q := range queries {
			dests := randomDests(combined, 40, rng)
			found += keyPathCase(t, fmt.Sprintf("DBLP %v source %d", queries, i), ds.Graph, R[i], combined, q, dests, rng)
			calls += len(dests)
		}
	}
	if found < calls/4 {
		t.Fatalf("only %d of %d key-path calls found a path; the comparison is too weak", found, calls)
	}
}

// sameResult fails unless got reproduces want exactly.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.ExtractedGoodness) != math.Float64bits(want.ExtractedGoodness) {
		t.Fatalf("%s: ExtractedGoodness %v, reference %v", label, got.ExtractedGoodness, want.ExtractedGoodness)
	}
	if !reflect.DeepEqual(got.Destinations, want.Destinations) {
		t.Fatalf("%s: Destinations %v, reference %v", label, got.Destinations, want.Destinations)
	}
	if got.PathsFound != want.PathsFound {
		t.Fatalf("%s: PathsFound %d, reference %d", label, got.PathsFound, want.PathsFound)
	}
	if !reflect.DeepEqual(got.Subgraph, want.Subgraph) {
		t.Fatalf("%s: Subgraph %+v, reference %+v", label, got.Subgraph, want.Subgraph)
	}
	if !reflect.DeepEqual(got.Provenance, want.Provenance) {
		t.Fatalf("%s: Provenance %v, reference %v", label, got.Provenance, want.Provenance)
	}
}

// extractGrid runs both implementations over every normalization × query
// type × noSharing value × path-length combination for one query set and
// returns how many runs produced a non-trivial answer.
func extractGrid(t *testing.T, label string, g *graph.Graph, queries []int, budget int, noSharings []bool, check func(string, *Result, *Result)) int {
	t.Helper()
	q := len(queries)
	combiners := []struct {
		comb score.Combiner
		k    int
	}{{score.AND{}, q}, {score.OR{}, 1}, {score.KSoftAND{K: 2}, 2}}
	nonTrivial := 0
	for _, norm := range allNorms {
		for _, c := range combiners {
			R, combined := normRows(t, g, queries, norm, c.comb)
			for _, noSharing := range noSharings {
				for _, maxLen := range []int{0, 3} {
					in := Input{G: g, Queries: queries, R: R, Combined: combined,
						K: c.k, Budget: budget, MaxPathLen: maxLen, NoSharing: noSharing}
					name := fmt.Sprintf("%s %v %v noSharing=%v maxLen=%d", label, norm, c.comb, noSharing, maxLen)
					want, err := refExtractCtx(context.Background(), in)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ExtractCtx(context.Background(), in)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name, got, want)
					if check != nil {
						check(name, got, want)
					}
					if want.PathsFound > 0 {
						nonTrivial++
					}
				}
			}
		}
	}
	return nonTrivial
}

func TestExtractMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := randomGraph(t, 400, 700, 100+seed)
		queries := []int{int(seed), 150 + int(seed), 333}
		if extractGrid(t, fmt.Sprintf("random seed %d", seed), g, queries, 12, []bool{false, true}, nil) == 0 {
			t.Fatal("no run found a key path")
		}
	}
}

// sharingOnly leaves NoSharing out of the grids on DBLP-sized graphs: there
// most destinations fail once the budget runs low (every node on a path
// costs one), and the reference DP needs seconds per run to reject them
// one by one. The random-graph grid and the DBLP key-path test cover
// NoSharing.
var sharingOnly = []bool{false}

func TestExtractMatchesReferenceDBLP(t *testing.T) {
	ds := scaleOneDBLP(t)
	for _, queries := range repositoryQueries(ds) {
		if extractGrid(t, fmt.Sprintf("DBLP %v", queries), ds.Graph, queries, 20, sharingOnly, nil) == 0 {
			t.Fatal("no run found a key path")
		}
	}
}

// TestExtractMatchesReferenceFastUnion repeats the comparison the way Fast
// CePS runs EXTRACT: on the induced union of the partitions holding the
// query nodes, with the answer remapped to original ids afterwards.
func TestExtractMatchesReferenceFastUnion(t *testing.T) {
	ds := scaleOneDBLP(t)
	part, err := partition.KWay(ds.Graph, 8, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, queries := range repositoryQueries(ds) {
		work, toOrig, toWork, err := ds.Graph.Induced(part.NodesInParts(part.PartsContaining(queries)))
		if err != nil {
			t.Fatal(err)
		}
		if work.N() >= ds.Graph.N() {
			t.Fatalf("union of %v is the whole graph", queries)
		}
		workQueries := make([]int, len(queries))
		for i, q := range queries {
			workQueries[i] = toWork[q]
		}
		remapped := func(res *Result) *Result {
			out := &Result{ExtractedGoodness: res.ExtractedGoodness, PathsFound: res.PathsFound,
				Subgraph: &graph.Subgraph{}, Provenance: make(map[int]Provenance)}
			for _, d := range res.Destinations {
				out.Destinations = append(out.Destinations, toOrig[d])
			}
			for _, u := range res.Subgraph.Nodes {
				out.Subgraph.Nodes = append(out.Subgraph.Nodes, toOrig[u])
			}
			for _, e := range res.Subgraph.PathEdges {
				u, v := toOrig[e.U], toOrig[e.V]
				out.Subgraph.PathEdges = append(out.Subgraph.PathEdges, graph.Edge{U: min(u, v), V: max(u, v), W: e.W})
			}
			out.Subgraph.FillInduced(ds.Graph)
			for u, p := range res.Provenance {
				path := make([]int, len(p.Path))
				for i, v := range p.Path {
					path[i] = toOrig[v]
				}
				out.Provenance[toOrig[u]] = Provenance{Source: p.Source, Dest: toOrig[p.Dest], Path: path}
			}
			return out
		}
		check := func(name string, got, want *Result) {
			sameResult(t, name+" remapped", remapped(got), remapped(want))
		}
		if extractGrid(t, fmt.Sprintf("union %v", queries), work, workQueries, 20, sharingOnly, check) == 0 {
			t.Fatal("no run found a key path")
		}
	}
}

// TestExtractConcurrentMatchesReference runs extractions over graphs of
// different sizes from several goroutines at once, so pooled scratch
// passes between them; every answer must still match the reference.
func TestExtractConcurrentMatchesReference(t *testing.T) {
	var ins []Input
	var wants []*Result
	for i, n := range []int{60, 400, 900} {
		g := randomGraph(t, n, 2*n, int64(20+i))
		queries := []int{2, n / 2, n - 3}
		R, combined := normRows(t, g, queries, rwr.NormColumn, score.KSoftAND{K: 2})
		in := Input{G: g, Queries: queries, R: R, Combined: combined, K: 2, Budget: 10}
		want, err := refExtractCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		ins, wants = append(ins, in), append(wants, want)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				i := (w + round) % len(ins)
				got, err := Extract(ins[i])
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got.ExtractedGoodness) != math.Float64bits(wants[i].ExtractedGoodness) ||
					!reflect.DeepEqual(got.Subgraph, wants[i].Subgraph) ||
					!reflect.DeepEqual(got.Provenance, wants[i].Provenance) {
					errs <- fmt.Errorf("worker %d round %d input %d: answer differs from the reference", w, round, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
