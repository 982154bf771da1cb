package rwr

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ceps/internal/fault"
	"ceps/internal/linalg"
)

// requireBitIdentical asserts two score vectors match bit for bit — the
// blocked kernel's contract is exact equality with the scalar solve, not
// approximate agreement.
func requireBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: blocked %v (%#x) != scalar %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBlockedBitIdenticalGolden is the acceptance-criterion test: blocked
// solves must be bit-identical to per-query ScoresCtx across all three
// normalizations, with and without early stopping, and across intra-sweep
// worker counts.
func TestBlockedBitIdenticalGolden(t *testing.T) {
	g := randomGraph(t, 160, 320, 9)
	queries := []int{0, 7, 42, 99, 123, 159}
	norms := []struct {
		name string
		cfg  Config
	}{
		{"column", Config{C: 0.5, Iterations: 50, Norm: NormColumn}},
		{"degree-penalized", Config{C: 0.5, Iterations: 50, Norm: NormDegreePenalized, Alpha: 0.5}},
		{"symmetric", Config{C: 0.5, Iterations: 50, Norm: NormSymmetric}},
	}
	for _, n := range norms {
		for _, tol := range []float64{0, 1e-7} {
			cfg := n.cfg
			cfg.Tol = tol
			s, err := NewSolver(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float64, len(queries))
			wantDiags := make([]Diagnostics, len(queries))
			for i, q := range queries {
				want[i], wantDiags[i], err = s.ScoresCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				R, diags, err := s.ScoresSetBlockedCtx(context.Background(), queries, workers)
				if err != nil {
					t.Fatalf("%s tol=%g workers=%d: %v", n.name, tol, workers, err)
				}
				for i := range queries {
					label := n.name
					requireBitIdentical(t, R[i], want[i], label)
					if diags[i] != wantDiags[i] {
						t.Fatalf("%s tol=%g workers=%d query %d: diag %+v != scalar %+v",
							n.name, tol, workers, queries[i], diags[i], wantDiags[i])
					}
				}
			}
		}
	}
}

// TestBlockedSingleQueryAndDuplicates covers the q=1 panel path and
// duplicate sources sharing a query set.
func TestBlockedSingleQueryAndDuplicates(t *testing.T) {
	g := randomGraph(t, 80, 120, 3)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, wantDiag, err := s.ScoresCtx(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	R, diags, err := s.ScoresSetBlockedCtx(context.Background(), []int{5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, R[0], want, "single query")
	if diags[0] != wantDiag {
		t.Fatalf("single-query diag %+v != %+v", diags[0], wantDiag)
	}
	R, _, err = s.ScoresSetBlockedCtx(context.Background(), []int{5, 9, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, R[0], want, "duplicate first")
	requireBitIdentical(t, R[2], want, "duplicate second")
}

func TestBlockedValidation(t *testing.T) {
	g := randomGraph(t, 30, 30, 2)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ScoresSetBlockedCtx(context.Background(), nil, 1); !errors.Is(err, fault.ErrBadQuery) {
		t.Fatalf("empty set: err = %v, want ErrBadQuery", err)
	}
	// A bad id anywhere must fail fast before any solving.
	if _, _, err := s.ScoresSetBlockedCtx(context.Background(), []int{3, 99}, 1); !errors.Is(err, fault.ErrBadQuery) {
		t.Fatalf("bad id: err = %v, want ErrBadQuery", err)
	}
	if _, _, err := s.ScoresSetBlockedCtx(context.Background(), []int{-1}, 1); !errors.Is(err, fault.ErrBadQuery) {
		t.Fatalf("negative id: err = %v, want ErrBadQuery", err)
	}
}

// TestScoresSetCtxFailsFastOnBadID pins the satellite fix: a bad id at any
// position fails before solving the queries that precede it.
func TestScoresSetCtxFailsFastOnBadID(t *testing.T) {
	g := randomGraph(t, 40, 40, 6)
	cfg := colConfig()
	cfg.Iterations = 1 << 30 // a solve would hang; validation must come first
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := s.ScoresSetCtx(context.Background(), []int{0, 1, 400})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, fault.ErrBadQuery) {
			t.Fatalf("err = %v, want ErrBadQuery", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ScoresSetCtx solved preceding queries before rejecting the bad id")
	}
}

// TestBlockedDivergenceGuards feeds the same pathological matrices as the
// scalar divergence tests through the blocked kernel.
func TestBlockedDivergenceGuards(t *testing.T) {
	mat := func(t *testing.T, v float64) *Solver {
		m, err := linalg.NewCSR(2, 2, []linalg.Triple{
			{Row: 0, Col: 0, Val: v}, {Row: 1, Col: 1, Val: v},
		})
		if err != nil {
			t.Fatal(err)
		}
		return &Solver{cfg: Config{C: 0.5, Iterations: 500}, n: 2, trans: m}
	}
	s := mat(t, 4) // residual doubles each sweep: growth guard fires
	if _, _, err := s.ScoresSetBlockedCtx(context.Background(), []int{0, 1}, 1); !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("growing walk: err = %v, want ErrDiverged", err)
	}
	s = mat(t, 1e308) // overflow: non-finite probe fires
	if _, _, err := s.ScoresSetBlockedCtx(context.Background(), []int{0, 1}, 1); !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("overflowing walk: err = %v, want ErrDiverged", err)
	}
}

// TestBlockedCancelNoLeak arms a deadline against a practically infinite
// blocked solve and checks the abort is prompt and leaks no goroutines —
// the per-sweep fan-out goroutines must all be joined.
func TestBlockedCancelNoLeak(t *testing.T) {
	g := randomGraph(t, 1000, 2000, 4)
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 30
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = s.ScoresSetBlockedCtx(ctx, []int{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	elapsed := time.Since(start)
	if !errors.Is(err, fault.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("abort took %v; the deadline should cut within one sweep", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServingBlockedMissAndHitPath drives the blocked serving path: cold
// sources are solved with one fused kernel call (counted as misses, stored
// in the cache), warm repeats and overlaps hit, and every vector stays
// bit-identical to a scalar ScoresCtx solve.
func TestServingBlockedMissAndHitPath(t *testing.T) {
	g := randomGraph(t, 100, 150, 12)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(2)
	space := Space(colConfig().Fingerprint(), 1, nil)
	opt := ServeOptions{Workers: 2}
	ctx := context.Background()

	queries := []int{1, 2, 3}
	R, _, stats, err := s.Resolve(ctx, queries, cache, space, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses != 3 || stats.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 3 misses", stats)
	}
	for i, q := range queries {
		want, _, err := s.ScoresCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, R[i], want, "cold blocked serving")
	}

	R2, _, stats, err := s.Resolve(ctx, queries, cache, space, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 3 || stats.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 3 hits", stats)
	}
	for i := range queries {
		requireBitIdentical(t, R2[i], R[i], "warm blocked serving")
	}

	_, _, stats, err = s.Resolve(ctx, []int{2, 3, 4}, cache, space, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 2 || stats.Misses != 1 {
		t.Fatalf("overlap stats = %+v, want 2 hits 1 miss", stats)
	}
}

// TestServingBlockedCanceledLeaderCleansFlights: when the blocked miss
// solve fails, every registered flight must be finished — a later call for
// the same sources must find a clean in-flight table and solve normally.
func TestServingBlockedCanceledLeaderCleansFlights(t *testing.T) {
	g := randomGraph(t, 60, 90, 15)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(1)
	space := Space(colConfig().Fingerprint(), 2, nil)
	opt := ServeOptions{Workers: 1}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := s.Resolve(canceled, []int{4, 5}, cache, space, pool, opt); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, stats, err := s.Resolve(context.Background(), []int{4, 5}, cache, space, pool, opt)
		if err == nil && stats.Misses != 2 {
			err = errors.New("retry should re-solve both sources")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry hung: canceled leader left dangling flights")
	}
}

// TestBlockedConcurrentPoolHammer runs many concurrent blocked solves
// sharing one solver's buffer pool and checks every result stays
// bit-identical to the scalar reference — under -race this doubles as the
// data-race probe for the pool and the splits cache.
func TestBlockedConcurrentPoolHammer(t *testing.T) {
	g := randomGraph(t, 120, 240, 21)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{
		{0, 1, 2, 3},
		{4, 5, 6},
		{0, 5, 10, 15, 20},
		{7, 8},
		{100, 110, 119},
	}
	want := make([][][]float64, len(sets))
	for i, qs := range sets {
		want[i] = make([][]float64, len(qs))
		for j, q := range qs {
			want[i][j], _, err = s.ScoresCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for rep := 0; rep < 8; rep++ {
		for i, qs := range sets {
			wg.Add(1)
			go func(i int, qs []int, workers int) {
				defer wg.Done()
				R, _, err := s.ScoresSetBlockedCtx(context.Background(), qs, workers)
				if err != nil {
					errs <- err
					return
				}
				for j := range qs {
					for k := range R[j] {
						if math.Float64bits(R[j][k]) != math.Float64bits(want[i][j][k]) {
							errs <- errors.New("concurrent blocked solve diverged from scalar reference")
							return
						}
					}
				}
			}(i, qs, 1+rep%4)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
