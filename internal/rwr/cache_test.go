package rwr

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"ceps/internal/fault"
	"ceps/internal/graph"
)

func cacheTestGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1+float64(i%3))
		b.AddEdge(i, (i+7)%n, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := DefaultConfig()
	variants := []Config{
		{C: 0.6, Iterations: base.Iterations, Norm: base.Norm, Alpha: base.Alpha},
		{C: base.C, Iterations: 25, Norm: base.Norm, Alpha: base.Alpha},
		{C: base.C, Iterations: base.Iterations, Norm: NormColumn, Alpha: base.Alpha},
		{C: base.C, Iterations: base.Iterations, Norm: base.Norm, Alpha: 0.9},
		{C: base.C, Iterations: base.Iterations, Norm: base.Norm, Alpha: base.Alpha, Tol: 1e-6},
	}
	for i, v := range variants {
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("variant %d collides with the base fingerprint", i)
		}
	}
	if base.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}

func TestSpaceSeparatesGraphIdentity(t *testing.T) {
	fp := DefaultConfig().Fingerprint()
	full := Space(fp, 0, nil)
	u1 := Space(fp, 1, []int{0, 2})
	u2 := Space(fp, 1, []int{0, 3})
	u3 := Space(fp, 2, []int{0, 2})
	if full == u1 || u1 == u2 || u1 == u3 {
		t.Fatalf("spaces collide: full=%x u1=%x u2=%x u3=%x", full, u1, u2, u3)
	}
}

// TestServingBitIdentical: the serving path returns exactly the vectors a
// plain solve returns, on first (miss) and second (hit) lookup.
func TestServingBitIdentical(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	space := Space(s.Config().Fingerprint(), 0, nil)
	queries := []int{3, 17, 41}

	want, wantDiags, err := s.ScoresSetCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, diags, _, err := s.Resolve(context.Background(), queries, cache, space, NewPool(4), ServeOptions{})
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
}

// TestServingReturnsPrivateCopies: mutating a returned vector must not
// poison later lookups.
func TestServingReturnsPrivateCopies(t *testing.T) {
	g := cacheTestGraph(t, 30)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	first, _, _, err := s.Resolve(context.Background(), []int{5}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := first[0][5]
	first[0][5] = math.Inf(1) // caller scribbles on its result
	second, _, _, err := s.Resolve(context.Background(), []int{5}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if second[0][5] != want {
		t.Fatalf("cache poisoned: got %v, want %v", second[0][5], want)
	}
}

// TestCacheEvictionUnderTinyBudget: a budget that fits roughly one vector
// still serves correct results and counts evictions.
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	g := cacheTestGraph(t, 50)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(int64(50*8) + entryOverhead) // one vector
	want, err := s.Scores(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{2, 9, 30, 2} {
		if _, _, _, err := s.Resolve(context.Background(), []int{q}, cache, 1, nil, ServeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, _, err := s.Resolve(context.Background(), []int{2}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[0][j] != want[j] {
			t.Fatalf("node %d: %v != %v after evictions", j, got[0][j], want[j])
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions under a one-vector budget, stats %+v", st)
	}
	if st.Entries > 1 {
		t.Errorf("budget admits %d entries, want ≤ 1", st.Entries)
	}
}

// TestCacheZeroBudgetAlwaysMisses: a disabled cache stays correct and
// stores nothing.
func TestCacheZeroBudgetAlwaysMisses(t *testing.T) {
	g := cacheTestGraph(t, 20)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(0)
	for i := 0; i < 2; i++ {
		if _, _, _, err := s.Resolve(context.Background(), []int{4}, cache, 1, nil, ServeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and nothing stored", st)
	}
}

func TestPurgeDropsEntriesAndCounts(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	cache.mu.Lock()
	cache.storeLocked(cacheKey{space: 1, source: 2}, []float64{1, 2, 3}, Diagnostics{})
	cache.mu.Unlock()
	if cache.Stats().Entries != 1 {
		t.Fatal("entry not stored")
	}
	cache.Purge()
	st := cache.Stats()
	if st.Entries != 0 || st.BytesUsed != 0 || st.Invalidations != 1 {
		t.Errorf("after purge stats = %+v", st)
	}
}

// TestSingleflightSharesOneSolve: many concurrent requesters of one cold
// source produce exactly one miss (the leader) and identical vectors.
func TestSingleflightSharesOneSolve(t *testing.T) {
	g := cacheTestGraph(t, 200)
	cfg := DefaultConfig()
	cfg.Iterations = 80
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(4)
	const goroutines = 16
	results := make([][]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			R, _, _, err := s.Resolve(context.Background(), []int{7}, cache, 9, pool, ServeOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = R[0]
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("goroutine %d disagrees at node %d", i, j)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// TestServingFollowerSurvivesLeaderCancel: a follower with a live context
// retries when the leader's context is canceled mid-solve.
func TestServingFollowerSurvivesLeaderCancel(t *testing.T) {
	g := cacheTestGraph(t, 300)
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 20 // long solve so cancellation lands mid-flight
	cfg.Tol = 1e-12
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, _, _, leaderErr = s.Resolve(leaderCtx, []int{3}, cache, 1, nil, ServeOptions{})
	}()
	<-started
	cancelLeader()
	wg.Wait()
	if leaderErr == nil {
		// The solve may have finished before cancellation; either way the
		// follower below must succeed.
		t.Log("leader finished before cancel")
	}
	R, _, _, err := s.Resolve(context.Background(), []int{3}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatalf("follower failed after leader cancel: %v", err)
	}
	if len(R[0]) != g.N() {
		t.Fatal("bad vector length")
	}
}

// TestResolveFollowerRetriesAfterLeaderContextError pins step 4 of the
// resolver: a follower parked on another caller's flight, whose leader
// then dies on a context error, re-enters the resolver with its own live
// context, becomes the new leader, and returns the exact solved vector.
func TestResolveFollowerRetriesAfterLeaderContextError(t *testing.T) {
	g := cacheTestGraph(t, 120)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	const space = uint64(5)
	_, _, _, fl, leader := cache.getOrJoin(space, 3)
	if !leader {
		t.Fatal("first getOrJoin should lead")
	}
	type out struct {
		R     [][]float64
		stats ServeStats
		err   error
	}
	done := make(chan out, 1)
	go func() {
		R, _, stats, err := s.Resolve(context.Background(), []int{3}, cache, space, NewPool(1), ServeOptions{Workers: 1})
		done <- out{R, stats, err}
	}()
	for cache.Stats().Hits == 0 { // the follower has joined the flight
		time.Sleep(time.Millisecond)
	}
	cache.finish(space, 3, fl, nil, Diagnostics{}, fault.FromContext(canceledCtx()))
	got := <-done
	if got.err != nil {
		t.Fatalf("follower failed after the leader's context error: %v", got.err)
	}
	if got.stats.Misses != 1 || got.stats.Hits != 0 {
		t.Errorf("stats = %+v, want the retry counted as 1 miss", got.stats)
	}
	want, _, err := s.ScoresCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Float64bits(got.R[0][j]) != math.Float64bits(want[j]) {
			t.Fatalf("node %d: retried %v vs solved %v", j, got.R[0][j], want[j])
		}
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestPoolBoundsConcurrency(t *testing.T) {
	pool := NewPool(2)
	if pool.Size() != 2 {
		t.Fatalf("size = %d", pool.Size())
	}
	var mu sync.Mutex
	active, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			mu.Lock()
			active--
			mu.Unlock()
			pool.release()
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak concurrency %d exceeds pool bound 2", peak)
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	pool := NewPool(1)
	if err := pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.acquire(ctx); err == nil {
		t.Fatal("acquire on a canceled context should fail")
	}
	pool.release()
}

// TestFinishAfterPurgeDropsStore is the purge/in-flight-race regression
// test: a leader whose flight started before a Purge must not store its
// vector afterwards. Under the old ScoreCache the store landed anyway,
// leaving a dead-space vector (its key space was retired by the purge's
// caller) consuming the byte budget until LRU eviction; this test fails
// on that behavior and passes on the generation-guarded one.
func TestFinishAfterPurgeDropsStore(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	_, _, ok, fl, leader := cache.getOrJoin(42, 7)
	if ok || !leader {
		t.Fatalf("expected to lead a cold flight, ok=%v leader=%v", ok, leader)
	}
	cache.Purge() // Reconfigure/SetPartitioned racing the in-flight solve
	cache.finish(42, 7, fl, make([]float64, 128), Diagnostics{}, nil)

	st := cache.Stats()
	if st.Entries != 0 || st.BytesUsed != 0 {
		t.Fatalf("stale flight stored dead space: %d entries, %d bytes used", st.Entries, st.BytesUsed)
	}
	if st.StaleDrops != 1 {
		t.Errorf("StaleDrops = %d, want 1", st.StaleDrops)
	}
	// The waiters still got the leader's vector.
	select {
	case <-fl.done:
	default:
		t.Fatal("flight not completed")
	}
	if fl.err != nil || len(fl.vec) != 128 {
		t.Fatalf("flight result lost: err=%v len=%d", fl.err, len(fl.vec))
	}
}

// TestPurgeBetweenFlightsNoDeadSpace drives many concurrent flights whose
// finishes are all gated until after a Purge, then checks that none of
// them re-occupied the byte budget. Run under -race by the tier-1 gate.
func TestPurgeBetweenFlightsNoDeadSpace(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	const flights = 64
	var registered, finished sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < flights; i++ {
		registered.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			_, _, ok, fl, leader := cache.getOrJoin(9, i)
			registered.Done()
			if ok || !leader {
				t.Errorf("flight %d: ok=%v leader=%v", i, ok, leader)
				return
			}
			<-gate
			cache.finish(9, i, fl, make([]float64, 64), Diagnostics{}, nil)
		}(i)
	}
	registered.Wait()
	cache.Purge() // every flight is now stale
	close(gate)
	finished.Wait()

	st := cache.Stats()
	if st.BytesUsed != 0 || st.Entries != 0 {
		t.Fatalf("dead space after purge: %d entries, %d bytes (stats %+v)", st.Entries, st.BytesUsed, st)
	}
	if st.StaleDrops != flights {
		t.Errorf("StaleDrops = %d, want %d", st.StaleDrops, flights)
	}
	// Post-purge flights store normally again.
	_, _, _, fl, leader := cache.getOrJoin(9, 0)
	if !leader {
		t.Fatal("expected a fresh leader after purge")
	}
	cache.finish(9, 0, fl, make([]float64, 64), Diagnostics{}, nil)
	if st := cache.Stats(); st.Entries != 1 || st.BytesUsed == 0 {
		t.Fatalf("fresh store after purge failed: %+v", st)
	}
}
