package rwr

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ceps/internal/fault"
)

// coalesceServe runs one serving call with the coalescer enabled.
func coalesceServe(ctx context.Context, s *Solver, co *Coalescer, cache *ScoreCache, space uint64, pool *Pool, queries []int) ([][]float64, []Diagnostics, ServeStats, error) {
	return s.Resolve(ctx, queries, cache, space, pool, ServeOptions{Coalesce: co})
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// openPanelWidth reports how many entries the currently forming panel for
// key holds (0 when none is forming).
func openPanelWidth(co *Coalescer, key panelKey) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	if p := co.panels[key]; p != nil {
		return len(p.entries)
	}
	return 0
}

// TestCoalesceBitIdenticalSingleCaller: a lone request through the
// coalescer gets exactly the vectors and diagnostics a plain solve
// returns — on the miss (a width-1 panel: the idle pool admits it
// immediately) and on the cached hit.
func TestCoalesceBitIdenticalSingleCaller(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	co := NewCoalescer(CoalesceOptions{})
	space := Space(s.Config().Fingerprint(), 0, nil)
	queries := []int{3, 17, 41}

	want, wantDiags, err := s.ScoresSetCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, diags, _, err := coalesceServe(context.Background(), s, co, cache, space, NewPool(4), queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if diags[i] != wantDiags[i] {
				t.Fatalf("round %d query %d: diagnostics %+v != %+v", round, i, diags[i], wantDiags[i])
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("round %d query %d node %d: %v != %v", round, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 3 misses then 3 hits", st)
	}
	if cs := co.Stats(); cs.Rows != 3 {
		t.Errorf("coalescer rows = %d, want 3", cs.Rows)
	}
}

// TestCoalesceMergesConcurrentMisses holds the only pool slot so eight
// independent single-source requests pile into one forming panel, then
// releases the slot: the panel must solve as ONE blocked call of width 8
// and every caller must receive its bit-exact column.
func TestCoalesceMergesConcurrentMisses(t *testing.T) {
	g := cacheTestGraph(t, 120)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(1)
	co := NewCoalescer(CoalesceOptions{MaxWait: time.Minute, MaxWidth: 64})
	space := Space(s.Config().Fingerprint(), 0, nil)
	key := panelKey{solver: s, space: space}

	const n = 8
	sources := []int{3, 11, 19, 27, 35, 43, 51, 59}
	want, _, err := s.ScoresSetCtx(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}

	pool.sem <- struct{}{} // hold the only slot: the panel cannot launch
	results := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			R, _, _, err := coalesceServe(context.Background(), s, co, cache, space, pool, []int{sources[i]})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = R[0]
		}(i)
	}
	waitUntil(t, "all callers to join the panel", func() bool { return openPanelWidth(co, key) == n })
	<-pool.sem // release: the width-8 panel seals on slot acquire
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		for j := range want[i] {
			if math.Float64bits(results[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("caller %d node %d: %v != %v", i, j, results[i][j], want[i][j])
			}
		}
	}
	cs := co.Stats()
	if cs.Panels != 1 || cs.Rows != n || cs.MaxWidth != n {
		t.Errorf("stats = %+v, want 1 panel of width %d", cs, n)
	}
	if st := cache.Stats(); st.Misses != n {
		t.Errorf("cache misses = %d, want %d", st.Misses, n)
	}
}

// TestCoalesceWidthCapSpills: a group join larger than MaxWidth spills
// into multiple panels, none wider than the cap, and a full panel solves
// immediately instead of burning the latency budget.
func TestCoalesceWidthCapSpills(t *testing.T) {
	g := cacheTestGraph(t, 120)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	co := NewCoalescer(CoalesceOptions{MaxWait: time.Minute, MaxWidth: 4})
	space := Space(s.Config().Fingerprint(), 0, nil)
	queries := []int{2, 9, 16, 23, 30, 37, 44, 51}

	want, _, err := s.ScoresSetCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, _, _, err := coalesceServe(context.Background(), s, co, cache, space, nil, queries)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("full panels should not wait out the minute budget (took %v)", elapsed)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("query %d node %d: %v != %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	cs := co.Stats()
	if cs.Panels != 2 || cs.Rows != 8 || cs.MaxWidth != 4 {
		t.Errorf("stats = %+v, want 2 panels of width 4", cs)
	}
}

// TestCoalesceWaiterCancelForming: a caller whose context dies while its
// panel is still forming gets a coalesce_wait shed that keeps both the
// overload and the context identities, the abandoned panel aborts
// without solving, and the key space is not wedged for later callers.
func TestCoalesceWaiterCancelForming(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(1)
	co := NewCoalescer(CoalesceOptions{MaxWait: time.Minute, MaxWidth: 64})
	space := Space(s.Config().Fingerprint(), 0, nil)
	key := panelKey{solver: s, space: space}

	pool.sem <- struct{}{} // wedge the pool: the panel keeps forming
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := coalesceServe(ctx, s, co, cache, space, pool, []int{7})
		errc <- err
	}()
	waitUntil(t, "the caller to join a panel", func() bool { return openPanelWidth(co, key) == 1 })
	cancel()

	err = <-errc
	if fault.ShedReason(err) != "coalesce_wait" {
		t.Fatalf("shed reason = %q (err %v), want coalesce_wait", fault.ShedReason(err), err)
	}
	if !errors.Is(err, fault.ErrOverloaded) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v should match ErrOverloaded and context.Canceled", err)
	}
	waitUntil(t, "the abandoned panel to abort", func() bool { return co.Stats().Aborts == 1 })
	if cs := co.Stats(); cs.Panels != 0 {
		t.Fatalf("abandoned panel must not solve: %+v", cs)
	}

	// The flight the aborted panel held was finished with a contextual
	// error, so a fresh caller becomes a new leader and succeeds.
	<-pool.sem
	R, _, _, err := coalesceServe(context.Background(), s, co, cache, space, pool, []int{7})
	if err != nil {
		t.Fatalf("key space wedged after abort: %v", err)
	}
	if len(R[0]) != g.N() {
		t.Fatal("bad vector length")
	}
}

// TestCoalesceCancelAfterSealIsPlainContextError: once the panel sealed
// (here: solve in flight), a waiter's context death is that waiter's own
// problem, not load — no overload wrapper.
func TestCoalesceCancelAfterSealIsPlainContextError(t *testing.T) {
	g := cacheTestGraph(t, 300)
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 20 // long solve so cancellation lands mid-flight
	cfg.Tol = 1e-12
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(1)
	co := NewCoalescer(CoalesceOptions{MaxWait: time.Minute, MaxWidth: 64})
	space := Space(s.Config().Fingerprint(), 0, nil)

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	err1c := make(chan error, 1)
	go func() {
		_, _, _, err := coalesceServe(ctx1, s, co, cache, space, pool, []int{3})
		err1c <- err
	}()
	// An idle pool admits the panel immediately, sealing it; wait until the
	// solve is actually in flight (the panel left the forming map after at
	// least one join).
	waitUntil(t, "the panel to seal", func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return len(co.panels) == 0 && co.stats.Aborts == 0 && cache.Stats().Misses >= 1
	})
	cancel1()
	err = <-err1c
	if err == nil {
		t.Log("solve finished before the cancel landed; nothing to assert")
	} else {
		if fault.ShedReason(err) != "" {
			t.Fatalf("post-seal cancel classified as shed %q: %v", fault.ShedReason(err), err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v should be the plain context error", err)
		}
	}

	// Whatever happened above, the key space must stay serviceable.
	R, _, _, err := coalesceServe(context.Background(), s, co, cache, space, pool, []int{3})
	if err != nil {
		t.Fatalf("key space wedged after post-seal cancel: %v", err)
	}
	if len(R[0]) != g.N() {
		t.Fatal("bad vector length")
	}
}

// TestCoalescePurgedMidPanelDropsStore: a Purge (Reconfigure) between
// join and solve must deliver answers to the waiting callers but drop the
// store — no vector from the old generation may land in the new cache.
func TestCoalescePurgedMidPanelDropsStore(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(1)
	co := NewCoalescer(CoalesceOptions{MaxWait: time.Minute, MaxWidth: 64})
	space := Space(s.Config().Fingerprint(), 0, nil)
	key := panelKey{solver: s, space: space}

	pool.sem <- struct{}{}
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := coalesceServe(context.Background(), s, co, cache, space, pool, []int{5})
		errc <- err
	}()
	waitUntil(t, "the caller to join a panel", func() bool { return openPanelWidth(co, key) == 1 })
	cache.Purge()
	<-pool.sem
	if err := <-errc; err != nil {
		t.Fatalf("purged-mid-panel caller should still be answered: %v", err)
	}
	if st := cache.Stats(); st.StaleDrops == 0 {
		t.Errorf("stale store not dropped: %+v", st)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("old-generation vector leaked into the cache: %+v", st)
	}
}
