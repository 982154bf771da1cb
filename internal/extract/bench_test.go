package extract

import (
	"fmt"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

func BenchmarkExtractBudgets(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	queries := []int{3, 1777, 4200}
	R, combined := scoresFor(b, g, queries, score.AND{})
	for _, budget := range []int{10, 50, 200} {
		name := map[int]string{10: "b=10", 50: "b=50", 200: "b=200"}[budget]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Extract(Input{
					G: g, Queries: queries, R: R, Combined: combined,
					K: 3, Budget: budget,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractWarmDBLP is EXTRACT as a warm-cache query sees it: real
// RWR rows (the default degree-penalized walk) of a three-author
// repository query on the synthetic DBLP graph, AND combination, the
// default budget. allocs/op must not grow from scale 1 to scale 4.
func BenchmarkExtractWarmDBLP(b *testing.B) {
	for _, scale := range []float64{1, 4} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			ds, err := dblp.Generate(dblp.Scale(dblp.DefaultConfig(), scale))
			if err != nil {
				b.Fatal(err)
			}
			queries := []int{ds.Repository[0][0], ds.Repository[0][1], ds.Repository[1][0]}
			s, err := rwr.NewSolver(ds.Graph, rwr.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			R, err := s.ScoresSet(queries)
			if err != nil {
				b.Fatal(err)
			}
			combined, err := score.CombineNodes(R, score.AND{})
			if err != nil {
				b.Fatal(err)
			}
			in := Input{G: ds.Graph, Queries: queries, R: R, Combined: combined, K: 3, Budget: 20}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Extract(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeyPathDP times one key-path discovery toward a high-ranked
// destination: "fresh" builds the source's downhill view first (the first
// call from a source), "shared" reuses it (every later call).
func BenchmarkKeyPathDP(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	queries := []int{3}
	R, combined := scoresFor(b, g, queries, score.AND{})
	inH := make([]bool, g.N())
	inH[3] = true
	// A mid-ranked destination so the candidate set is realistic.
	pd := 0
	bestScore := -1.0
	for v := range combined {
		if v != 3 && combined[v] > bestScore {
			pd, bestScore = v, combined[v]
		}
	}
	dp := &pathDP{g: g}
	h := newDownhill(R[0], 3)
	for _, fresh := range []bool{true, false} {
		b.Run(map[bool]string{true: "fresh", false: "shared"}[fresh], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fresh {
					h.reset(R[0], 3)
				}
				if _, ok := dp.keyPath(h, combined, pd, inH, 20, false); !ok {
					b.Fatal("no path")
				}
			}
		})
	}
}
