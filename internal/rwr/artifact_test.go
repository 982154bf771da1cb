package rwr

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
)

// fakeArtifacts serves precomputed vectors for an explicit source set,
// recording reads. Vectors are the solver's own converged solutions so
// bit-identity assertions hold.
type fakeArtifacts struct {
	space   uint64
	vectors map[int][]float64
	reads   atomic.Int64
	badLen  bool
}

func newFakeArtifacts(t *testing.T, s *Solver, space uint64, sources []int) *fakeArtifacts {
	t.Helper()
	fa := &fakeArtifacts{space: space, vectors: make(map[int][]float64, len(sources))}
	for _, q := range sources {
		vec, _, err := s.ScoresCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		fa.vectors[q] = vec
	}
	return fa
}

func (f *fakeArtifacts) ReadVector(space uint64, source int) ([]float64, bool) {
	f.reads.Add(1)
	if space != f.space {
		return nil, false
	}
	vec, ok := f.vectors[source]
	if !ok {
		return nil, false
	}
	if f.badLen {
		return vec[:len(vec)-1], true
	}
	out := make([]float64, len(vec))
	copy(out, vec)
	return out, true
}

// assertBitEqual fails unless every returned row matches the reference
// solve bit for bit.
func assertBitEqual(t *testing.T, s *Solver, queries []int, R [][]float64) {
	t.Helper()
	for i, q := range queries {
		want, _, err := s.ScoresCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(R[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("query %d node %d: served %v vs solved %v", q, j, R[i][j], want[j])
			}
		}
	}
}

func TestArtifactServingPaths(t *testing.T) {
	g := randomGraph(t, 60, 150, 91)
	const space = uint64(77)
	queries := []int{3, 9, 21, 40} // 3, 9 covered; 21, 40 not
	covered := []int{3, 9}
	paths := []struct {
		name string
		opt  ServeOptions
	}{
		{"serial", ServeOptions{Workers: 1}},
		{"blocked", ServeOptions{Workers: 2}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			s, err := NewSolver(g, colConfig())
			if err != nil {
				t.Fatal(err)
			}
			fa := newFakeArtifacts(t, s, space, covered)
			opt := p.opt
			opt.Artifacts = fa
			cache := NewScoreCache(1 << 20)
			R, diags, stats, err := s.Resolve(context.Background(), queries, cache, space, NewPool(2), opt)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Hits != 0 || stats.Misses != len(queries) || stats.ArtifactHits != len(covered) {
				t.Fatalf("cold stats = %+v, want 0 hits, %d misses, %d artifact hits", stats, len(queries), len(covered))
			}
			assertBitEqual(t, s, queries, R)
			for i, q := range queries {
				isCovered := q == 3 || q == 9
				if isCovered && (diags[i].Sweeps != 0 || !diags[i].Converged) {
					t.Fatalf("artifact-served %d has diag %+v, want 0 sweeps converged", q, diags[i])
				}
				if !isCovered && diags[i].Sweeps == 0 {
					t.Fatalf("uncovered %d reports 0 sweeps — did it skip the solve?", q)
				}
			}
			// Artifact-served vectors must have been inserted into the LRU:
			// the warm repeat is all cache hits with no further tier reads.
			before := fa.reads.Load()
			_, _, warm, err := s.Resolve(context.Background(), queries, cache, space, NewPool(2), opt)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Hits != len(queries) || warm.Misses != 0 || warm.ArtifactHits != 0 {
				t.Fatalf("warm stats = %+v, want all hits", warm)
			}
			if fa.reads.Load() != before {
				t.Fatal("warm repeat consulted the artifact tier despite cached vectors")
			}
		})
	}
}

func TestArtifactServingCoalesced(t *testing.T) {
	g := randomGraph(t, 60, 150, 93)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	const space = uint64(88)
	queries := []int{5, 12, 30}
	fa := newFakeArtifacts(t, s, space, []int{5, 12})
	cache := NewScoreCache(1 << 20)
	coal := NewCoalescer(CoalesceOptions{})
	opt := ServeOptions{Coalesce: coal, Artifacts: fa, Workers: 2}
	R, _, stats, err := s.Resolve(context.Background(), queries, cache, space, NewPool(2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArtifactHits != 2 || stats.Misses != 3 || stats.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 artifact hits inside 3 misses", stats)
	}
	assertBitEqual(t, s, queries, R)
}

func TestArtifactServingNoCache(t *testing.T) {
	g := randomGraph(t, 50, 120, 95)
	const space = uint64(99)
	for _, workers := range []int{1, 2} {
		s, err := NewSolver(g, colConfig())
		if err != nil {
			t.Fatal(err)
		}
		fa := newFakeArtifacts(t, s, space, []int{2, 8})
		queries := []int{2, 8, 17}
		opt := ServeOptions{Workers: workers, Artifacts: fa}
		R, _, stats, err := s.Resolve(context.Background(), queries, nil, space, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ArtifactHits != 2 || stats.Misses != 3 {
			t.Fatalf("workers=%d: cache-off stats = %+v", workers, stats)
		}
		assertBitEqual(t, s, queries, R)
	}
}

func TestArtifactBadLengthRejected(t *testing.T) {
	g := randomGraph(t, 40, 90, 97)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	const space = uint64(11)
	fa := newFakeArtifacts(t, s, space, []int{4})
	fa.badLen = true
	cache := NewScoreCache(1 << 20)
	opt := ServeOptions{Artifacts: fa}
	R, _, stats, err := s.Resolve(context.Background(), []int{4}, cache, space, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ArtifactHits != 0 {
		t.Fatalf("stats = %+v: a wrong-length vector must not count as served", stats)
	}
	assertBitEqual(t, s, []int{4}, R)
}
