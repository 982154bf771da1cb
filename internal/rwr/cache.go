package rwr

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"ceps/internal/fault"
)

// This file is the serving layer of Step 1: a shared, byte-budgeted LRU
// cache of per-source score vectors plus a bounded solve pool. The paper's
// §6 pre-compute discussion trades memory for the repeated per-query solve
// cost; the cache is the incremental version of that trade — only sources
// that queries actually ask about are materialized, and a byte budget
// bounds the "heavy burden when N is big" instead of an N×N inverse.
//
// Vectors are keyed by (space, source): the source node id plus a space
// fingerprint that encodes everything else the vector depends on — the RWR
// configuration and the identity of the (work) graph the solve ran on. A
// configuration change therefore can never serve stale vectors (the space
// changes), and Purge exists only to release the memory eagerly.

// Fingerprint returns a stable 64-bit hash of the walk parameters. Two
// configs with equal fingerprints produce identical score vectors on the
// same graph, so the fingerprint is the config's contribution to a cache
// key space.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(c.C))
	put(uint64(c.Iterations))
	put(uint64(c.Norm))
	put(math.Float64bits(c.Alpha))
	put(math.Float64bits(c.Tol))
	return h.Sum64()
}

// Space derives a cache key space from a config fingerprint and the
// identity of the graph the solves run on (callers hash whatever
// establishes that identity — e.g. a partition-union signature; zero values
// conventionally mean "the full graph").
func Space(fingerprint uint64, graphID uint64, parts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(fingerprint)
	put(graphID)
	put(uint64(len(parts)))
	for _, p := range parts {
		put(uint64(p))
	}
	return h.Sum64()
}

// Pool bounds how many random-walk solves run concurrently across every
// query and batch sharing it. Waiting for a slot honors the waiter's
// context, and slots are held only while a solve is actually sweeping —
// never while a goroutine waits on a cache flight — so the pool cannot
// deadlock against the cache.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting up to n concurrent solves; n ≤ 0 means
// 1 (fully sequential).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Size returns the pool's concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

// acquire blocks until a slot is free or ctx fires. A wait the context did
// not survive is classified as a pool_wait shed (ErrOverloaded wrapping the
// context identity), not an ordinary error: the pool refusing the work in
// time is load, not failure, and metrics count it as such. A nil pool is
// unbounded: acquire and release are no-ops.
func (p *Pool) acquire(ctx context.Context) error {
	if p == nil {
		return nil
	}
	if inj := fault.ActiveInjector(); inj != nil && inj.Fire(fault.InjectPoolStarve) {
		// Chaos: a wedged pool — block until the caller's context fires.
		<-ctx.Done()
		return fault.Overload("pool_wait", 0, fault.FromContext(ctx))
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fault.Overload("pool_wait", 0, fault.FromContext(ctx))
	}
}

func (p *Pool) release() {
	if p != nil {
		<-p.sem
	}
}

// CacheStats is a point-in-time snapshot of a ScoreCache's counters.
type CacheStats struct {
	// Hits counts queries answered without a fresh solve — either from a
	// stored vector or by joining a solve already in flight for the same
	// (space, source).
	Hits uint64 `json:"hits"`
	// Misses counts queries that had to run a fresh solve.
	Misses uint64 `json:"misses"`
	// Evictions counts vectors dropped to fit the byte budget.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts Purge calls (configuration changes).
	Invalidations uint64 `json:"invalidations"`
	// StaleDrops counts solved vectors discarded instead of stored because
	// a Purge happened after their flight started: storing them would have
	// filled the byte budget with dead space no future query can read.
	StaleDrops uint64 `json:"stale_drops"`
	// Entries is the number of vectors currently stored.
	Entries int `json:"entries"`
	// BytesUsed and BytesBudget describe the current footprint.
	BytesUsed   int64 `json:"bytes_used"`
	BytesBudget int64 `json:"bytes_budget"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheKey identifies one cached vector.
type cacheKey struct {
	space  uint64
	source int
}

// entry is one resident vector. vec is immutable once stored; readers copy
// it out, so eviction can drop the reference at any time.
type entry struct {
	key   cacheKey
	vec   []float64
	diag  Diagnostics
	bytes int64
}

// flight coordinates concurrent requests for the same missing vector: the
// first requester becomes the leader and solves; followers wait on done
// and share the leader's result, so an overlapping batch pays each
// source's solve exactly once even when its queries run concurrently.
type flight struct {
	done chan struct{}
	vec  []float64
	diag Diagnostics
	err  error
	// gen is the cache generation the flight started under; finish refuses
	// to store the result if a Purge has bumped the generation since, so a
	// reconfiguration racing an in-flight leader cannot leave dead-space
	// vectors occupying the byte budget. Followers still receive the
	// leader's result either way — it is correct for *them*, they asked
	// under the old space.
	gen uint64
}

// ScoreCache is a goroutine-safe LRU cache of RWR score vectors with a
// byte budget. It is shared by the full-graph and Fast CePS query paths of
// an Engine; see the package comment of this file for the keying scheme.
type ScoreCache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	gen      uint64     // bumped by Purge; guards finish against stale stores
	ll       *list.List // of *entry; front = most recently used
	items    map[cacheKey]*list.Element
	inflight map[cacheKey]*flight

	hits, misses, evictions, invalidations, staleDrops uint64
}

// entryOverhead approximates the per-entry bookkeeping cost (key, list
// element, entry header, map slot) added to the 8 bytes per score.
const entryOverhead = 128

// NewScoreCache returns a cache that keeps at most budgetBytes of score
// vectors (approximately: each vector costs 8·len + a small overhead).
// budgetBytes ≤ 0 disables storage entirely — lookups always miss — which
// keeps the serving code path uniform for cache-off configurations.
func NewScoreCache(budgetBytes int64) *ScoreCache {
	return &ScoreCache{
		budget:   budgetBytes,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*flight),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *ScoreCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		StaleDrops:    c.staleDrops,
		Entries:       c.ll.Len(),
		BytesUsed:     c.used,
		BytesBudget:   c.budget,
	}
}

// Purge drops every stored vector, bumps the cache generation, and counts
// one invalidation. Engines call it on reconfiguration: stale vectors can
// never be *read* (their key space dies with the old config), so purging
// is about releasing memory promptly rather than correctness. The
// generation bump extends that guarantee to in-flight leaders: a solve
// that started before the purge completes normally for its waiters but is
// not stored, so it cannot re-occupy the byte budget as unreadable dead
// space (see finish).
func (c *ScoreCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[cacheKey]*list.Element)
	c.used = 0
	c.gen++
	c.invalidations++
}

// getOrJoin is the miss/hit/flight triage for one source. On a hit it
// returns a private copy of the vector. On a miss it either registers the
// caller as the leader of a new flight (leader == true; the caller must
// finish the flight) or returns the existing flight to wait on.
func (c *ScoreCache) getOrJoin(space uint64, source int) (vec []float64, diag Diagnostics, ok bool, fl *flight, leader bool) {
	key := cacheKey{space: space, source: source}
	c.mu.Lock()
	if el, found := c.items[key]; found {
		c.ll.MoveToFront(el)
		ent := el.Value.(*entry)
		c.hits++
		c.mu.Unlock()
		// Entries are immutable; copy outside the lock.
		out := make([]float64, len(ent.vec))
		copy(out, ent.vec)
		return out, ent.diag, true, nil, false
	}
	if fl, found := c.inflight[key]; found {
		c.hits++ // the caller will share the in-flight solve
		c.mu.Unlock()
		return nil, Diagnostics{}, false, fl, false
	}
	fl = &flight{done: make(chan struct{}), gen: c.gen}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()
	return nil, Diagnostics{}, false, fl, true
}

// finish completes a flight: on success the vector is stored (subject to
// the byte budget) and handed to any followers; on error followers are
// woken to retry or propagate. The leader retains ownership of vec; the
// cache and the followers each keep private copies. A store is skipped —
// and counted as a stale drop — when a Purge bumped the generation after
// the flight started: the purge's caller (Reconfigure, SetPartitioned)
// has already retired this flight's key space, so storing would only park
// unreadable vectors against the byte budget until LRU eviction. On a nil
// cache (no flight was registered) finish is a no-op.
func (c *ScoreCache) finish(space uint64, source int, fl *flight, vec []float64, diag Diagnostics, err error) {
	if c == nil {
		return
	}
	key := cacheKey{space: space, source: source}
	if err == nil {
		stored := make([]float64, len(vec))
		copy(stored, vec)
		fl.vec = stored
		fl.diag = diag
	} else {
		fl.err = err
	}
	c.mu.Lock()
	if err == nil {
		if fl.gen == c.gen {
			c.storeLocked(key, fl.vec, diag)
		} else {
			c.staleDrops++
		}
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// storeLocked inserts (or replaces) an entry and evicts from the LRU tail
// until the budget holds. A vector larger than the whole budget is not
// stored. Callers hold c.mu.
func (c *ScoreCache) storeLocked(key cacheKey, vec []float64, diag Diagnostics) {
	ent := &entry{key: key, vec: vec, diag: diag, bytes: int64(len(vec))*8 + entryOverhead}
	if ent.bytes > c.budget {
		return
	}
	if el, found := c.items[key]; found {
		old := el.Value.(*entry)
		c.used += ent.bytes - old.bytes
		el.Value = ent
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(ent)
		c.used += ent.bytes
	}
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, victim.key)
		c.used -= victim.bytes
		c.evictions++
	}
}

// contextual reports whether err is a cancellation/deadline failure — the
// one class of leader failure a follower with a live context should retry
// rather than inherit.
func contextual(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, fault.ErrCanceled) || errors.Is(err, fault.ErrDeadlineExceeded)
}

// ServeStats reports how one Resolve call resolved its sources: Hits were
// served from a stored vector or a joined in-flight solve, Misses required
// a fresh solve by this caller. Hits+Misses equals the query-set size on
// success. Unlike CacheStats these are per-call, which is what per-query
// stage accounting (Result.Stages) reports.
type ServeStats struct {
	Hits, Misses int
	// ArtifactHits counts the Misses (they are a subset — the cache did
	// miss) that the precompute tier answered with a row read instead of
	// an iterative solve.
	ArtifactHits int
	// CoalescedWidth is the widest shared panel that served one of this
	// call's misses (0 when no miss went through a coalescer; 1 means a
	// panel solved for this caller alone).
	CoalescedWidth int
	// CoalesceWait is the longest forming delay one of this call's misses
	// spent queued in a panel before its solve launched.
	CoalesceWait time.Duration
}

// add folds the stats of a nested Resolve (a follower's retry) into stats.
func (stats *ServeStats) add(o ServeStats) {
	stats.Hits += o.Hits
	stats.Misses += o.Misses
	stats.ArtifactHits += o.ArtifactHits
	stats.CoalescedWidth = max(stats.CoalescedWidth, o.CoalescedWidth)
	stats.CoalesceWait = max(stats.CoalesceWait, o.CoalesceWait)
}

// ServeOptions are the per-call inputs of Resolve beyond the cache, key
// space and pool. None of them influences cache keys or answers: panel
// solves are column-wise bit-identical to ScoresCtx for every worker count
// and panel width, so they only decide scheduling.
type ServeOptions struct {
	// Workers bounds the intra-sweep row-parallelism of the panel solve
	// (≤ 0 means GOMAXPROCS, 1 is serial).
	Workers int
	// Coalesce, when non-nil, hands this call's panel to a shared
	// cross-request coalescer: its misses join a forming panel, possibly
	// alongside other callers' misses for the same key space, instead of
	// solving directly. Requires a cache; ignored without one.
	Coalesce *Coalescer
	// Artifacts, when non-nil, is consulted for every cache miss this call
	// leads, between the cache and the solver: a covered source becomes
	// one row read (stored into the cache like a solved vector would be)
	// instead of an iterative solve. Artifact rows are bit-identical to
	// iterative solves for panel-class artifacts and within documented
	// tolerance (~1e-9, the solver's own convergence tolerance) for
	// dense-inverse ones, so artifacts never influence cache keys.
	Artifacts ArtifactReader
}

// Resolve is the one Step 1 resolver of the serving layer: it computes the
// score matrix for a query set (one row per source) in four steps.
//
//  1. Triage: each source is a cache hit, a follower of a solve already in
//     flight, or a leader of a new flight. With a nil cache every source is
//     a leader and no flight is registered.
//  2. The artifact tier, when attached, serves the leaders it covers with
//     one row read each.
//  3. The remaining leaders solve as ONE ScoresSetBlockedCtx panel — through
//     the coalescer when one is attached (and a cache exists), otherwise
//     under a single pool slot (nil pool: unbounded). The fused sweep
//     streams the transition matrix once for all of them.
//  4. Followers wait for their leaders. A follower whose leader died on a
//     context error while its own context is alive re-enters the resolver
//     for that one source (and likely becomes the new leader).
//
// The result is bit-identical to ScoresSetCtx: power iteration is
// deterministic, the blocked kernel matches ScoresCtx column for column,
// and cached vectors are exact copies of what a fresh solve returns.
func (s *Solver) Resolve(ctx context.Context, queries []int, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions) ([][]float64, []Diagnostics, ServeStats, error) {
	if err := s.checkSources(queries); err != nil {
		return nil, nil, ServeStats{}, err
	}
	if cache != nil {
		if inj := fault.ActiveInjector(); inj != nil {
			if err := inj.Err(fault.InjectCacheFail); err != nil {
				return nil, nil, ServeStats{}, err
			}
		}
	}
	return s.resolve(ctx, queries, cache, space, pool, opt)
}

// resolve is Resolve past validation; follower retries re-enter here.
func (s *Solver) resolve(ctx context.Context, queries []int, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions) ([][]float64, []Diagnostics, ServeStats, error) {
	var stats ServeStats
	R := make([][]float64, len(queries))
	diags := make([]Diagnostics, len(queries))
	var leaders, followers []pendingFlight
	for i, q := range queries {
		if cache == nil {
			leaders = append(leaders, pendingFlight{i, q, nil})
			continue
		}
		vec, d, ok, fl, leader := cache.getOrJoin(space, q)
		switch {
		case ok:
			R[i], diags[i] = vec, d
			stats.Hits++
		case leader:
			leaders = append(leaders, pendingFlight{i, q, fl})
		default:
			followers = append(followers, pendingFlight{i, q, fl})
		}
	}
	leaders = s.serveLeadersFromArtifacts(cache, space, opt.Artifacts, leaders, R, diags, &stats)
	if len(leaders) > 0 {
		var err error
		if opt.Coalesce != nil && cache != nil {
			err = s.solveCoalesced(ctx, leaders, cache, space, pool, opt, R, diags, &stats)
		} else {
			err = s.solvePanel(ctx, leaders, cache, space, pool, opt.Workers, R, diags, &stats)
		}
		if err != nil {
			return nil, nil, stats, err
		}
	}
	// Our own leaders' flights are finished above, so followers of flights
	// from this very call never deadlock.
	for _, p := range followers {
		select {
		case <-p.fl.done:
		case <-ctx.Done():
			return nil, nil, stats, fault.FromContext(ctx)
		}
		if p.fl.err == nil {
			R[p.idx], diags[p.idx] = append([]float64(nil), p.fl.vec...), p.fl.diag
			stats.Hits++
			continue
		}
		if !contextual(p.fl.err) {
			return nil, nil, stats, p.fl.err
		}
		if err := s.retry(ctx, p, cache, space, pool, opt, R, diags, &stats); err != nil {
			return nil, nil, stats, err
		}
	}
	return R, diags, stats, nil
}

// retry re-resolves one source whose leader or panel died on a context
// error that is not the caller's own: with ctx still alive, the source
// goes back through the resolver (likely becoming a fresh leader).
func (s *Solver) retry(ctx context.Context, p pendingFlight, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions, R [][]float64, diags []Diagnostics, stats *ServeStats) error {
	if err := fault.FromContext(ctx); err != nil {
		return err
	}
	r, d, sub, err := s.resolve(ctx, []int{p.q}, cache, space, pool, opt)
	if err != nil {
		return err
	}
	R[p.idx], diags[p.idx] = r[0], d[0]
	stats.add(sub)
	return nil
}

// pendingFlight is one triaged source awaiting resolution: its position in
// the query set, the source id, and the flight this caller leads or
// follows (nil without a cache).
type pendingFlight struct {
	idx int
	q   int
	fl  *flight
}

// serveLeadersFromArtifacts is the precompute-tier consultation for the
// leaders, run after cache triage and before the iterative solve: each
// covered source becomes one row read, finished into its flight (so
// followers inherit it and the LRU stores it exactly as it would a solved
// vector) and recorded in R/diags/stats. The leaders the tier could not
// serve are returned for the solve.
func (s *Solver) serveLeadersFromArtifacts(cache *ScoreCache, space uint64, art ArtifactReader, leaders []pendingFlight, R [][]float64, diags []Diagnostics, stats *ServeStats) []pendingFlight {
	if art == nil {
		return leaders
	}
	kept := leaders[:0]
	for _, p := range leaders {
		vec, ok := s.readArtifact(art, space, p.q)
		if !ok {
			kept = append(kept, p)
			continue
		}
		cache.finish(space, p.q, p.fl, vec, artifactDiag(), nil)
		R[p.idx], diags[p.idx] = vec, artifactDiag()
		stats.Misses++
		stats.ArtifactHits++
	}
	return kept
}

// solvePanel solves the leaders as one blocked panel under a single pool
// slot — one kernel invocation whose intra-sweep parallelism is bounded by
// workers, so it occupies one slot the way one walk would — and finishes
// their flights with the outcome.
func (s *Solver) solvePanel(ctx context.Context, leaders []pendingFlight, cache *ScoreCache, space uint64, pool *Pool, workers int, R [][]float64, diags []Diagnostics, stats *ServeStats) error {
	queries := make([]int, len(leaders))
	for k, p := range leaders {
		queries[k] = p.q
	}
	var mR [][]float64
	var mD []Diagnostics
	err := pool.acquire(ctx)
	if err == nil {
		mR, mD, err = s.ScoresSetBlockedCtx(ctx, queries, workers)
		pool.release()
	}
	for k, p := range leaders {
		// Every registered flight must be finished, or concurrent
		// followers of these sources would wait forever.
		if err != nil {
			cache.finish(space, p.q, p.fl, nil, Diagnostics{}, err)
			continue
		}
		cache.finish(space, p.q, p.fl, mR[k], mD[k], nil)
		R[p.idx], diags[p.idx] = mR[k], mD[k]
	}
	stats.Misses += len(leaders)
	return err
}

// solveCoalesced hands the leaders to the shared coalescer, where they may
// ride one blocked panel with misses from concurrent callers, and collects
// their columns.
func (s *Solver) solveCoalesced(ctx context.Context, leaders []pendingFlight, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions, R [][]float64, diags []Diagnostics, stats *ServeStats) error {
	entries := make([]panelEntry, len(leaders))
	for k, p := range leaders {
		entries[k] = panelEntry{q: p.q, fl: p.fl}
	}
	panels := opt.Coalesce.enqueue(s, cache, space, pool, opt.Workers, entries)
	var firstErr error
	for k, p := range leaders {
		if firstErr != nil {
			// Still release our liveness reference: the panel either
			// solves for its remaining waiters or aborts cleanly, and its
			// flights are finished by the panel goroutine either way.
			panels[k].leave()
			continue
		}
		vec, d, err := opt.Coalesce.wait(ctx, panels[k], p.fl)
		switch {
		case err == nil:
			R[p.idx], diags[p.idx] = vec, d
			stats.Misses++
			panels[k].noteStats(stats)
		case contextual(err) && fault.ShedReason(err) == "":
			// The panel was abandoned or canceled by other waiters: with
			// our context alive, re-resolve solo, uncoalesced.
			solo := opt
			solo.Coalesce = nil
			firstErr = s.retry(ctx, p, cache, space, pool, solo, R, diags, stats)
		default:
			firstErr = err
		}
	}
	return firstErr
}
