package ceps_test

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"ceps"
	"ceps/internal/artifact"
	"ceps/internal/experiments"
)

// precomputeSmokeReport is the JSON shape `make bench-precompute` writes
// to BENCH_precompute.json: the cold-start numbers the precompute tier
// exists to fix. "Cold" here means a freshly started engine whose cache is
// empty — the restart/failover case — measured three ways: artifact-backed,
// bare iterative, and (for scale) the same workload warm from cache.
type precomputeSmokeReport struct {
	Nodes   int `json:"nodes"`
	Queries int `json:"queries"`
	// ArtifactHitRate is the tier hit rate over the cold pass; the
	// acceptance floor is 0.9 (full-graph dense artifact ⇒ every source
	// should be served).
	ArtifactHitRate float64 `json:"artifactHitRate"`
	// ColdArtifactNsPerQuery: first pass on a fresh engine with the tier.
	ColdArtifactNsPerQuery int64 `json:"coldArtifactNsPerQuery"`
	// ColdIterativeNsPerQuery: first pass on a fresh engine without it.
	ColdIterativeNsPerQuery int64 `json:"coldIterativeNsPerQuery"`
	// WarmCacheNsPerQuery: repeat pass served from the score cache.
	WarmCacheNsPerQuery int64 `json:"warmCacheNsPerQuery"`
	// ColdVsWarm = ColdArtifact / WarmCache; the acceptance ceiling is 2.
	ColdVsWarm float64 `json:"coldVsWarm"`
	// IterativeVsWarm = ColdIterative / WarmCache, reported for contrast
	// (typically far above ColdVsWarm; not asserted — it measures the
	// solver, not the tier).
	IterativeVsWarm float64 `json:"iterativeVsWarm"`
}

// precomputeTrials is how many independent cold/warm trials
// TestPrecomputeSmoke runs; the ceiling is asserted on the median trial so
// that one host stall during a ~10 ms pass cannot decide the verdict.
const precomputeTrials = 5

// TestPrecomputeSmoke pins the precompute tier's reason to exist: on a
// DBLP-scale substrate, cold queries against mmapped artifacts must land
// within 2x of warm-cache latency (median of precomputeTrials trials, each
// a fresh engine's cold pass followed by its warm pass), and the tier must
// actually serve them (hit rate >= 0.9 in every trial). When
// BENCH_PRECOMPUTE_OUT names a file the median trial is written there as
// JSON (`make bench-precompute`).
func TestPrecomputeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Dataset.Graph
	sets := overlapQuerySets(s, 8)
	queriesTotal := 0
	for _, qs := range sets {
		queriesTotal += len(qs)
	}

	// Precompute a dense full-graph artifact, as cepspre would offline.
	dir := t.TempDir()
	cfg := ceps.DefaultConfig()
	if _, err := artifact.Build(context.Background(), g, artifact.BuildConfig{
		RWR:         cfg.RWR,
		IncludeFull: true,
		ByteBudget:  256 << 20,
	}, dir); err != nil {
		t.Fatal(err)
	}

	pass := func(eng *ceps.Engine) time.Duration {
		start := time.Now()
		for _, qs := range sets {
			if _, err := eng.Query(qs...); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	trials := make([]precomputeSmokeReport, precomputeTrials)
	for i := range trials {
		// Cold, no artifacts: the restart penalty the tier removes.
		bare, err := ceps.NewEngine(g, ceps.WithConfig(cfg), ceps.WithCache(64<<20))
		if err != nil {
			t.Fatal(err)
		}
		coldIterative := pass(bare)
		bare.Close()

		// Cold, artifacts mmapped: same fresh-start state, tier bound;
		// then warm: the same engine again, answering from the score cache.
		arte, err := ceps.NewEngine(g, ceps.WithConfig(cfg), ceps.WithCache(64<<20), ceps.WithArtifactDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		coldArtifact := pass(arte)
		warmCache := pass(arte)
		st, ok := arte.ArtifactStats()
		arte.Close()
		if !ok {
			t.Fatal("artifact stats should be available")
		}
		trials[i] = precomputeSmokeReport{
			Nodes:                   g.N(),
			Queries:                 queriesTotal,
			ArtifactHitRate:         st.HitRate(),
			ColdArtifactNsPerQuery:  coldArtifact.Nanoseconds() / int64(queriesTotal),
			ColdIterativeNsPerQuery: coldIterative.Nanoseconds() / int64(queriesTotal),
			WarmCacheNsPerQuery:     warmCache.Nanoseconds() / int64(queriesTotal),
			ColdVsWarm:              float64(coldArtifact) / float64(warmCache),
			IterativeVsWarm:         float64(coldIterative) / float64(warmCache),
		}
		t.Logf("precompute smoke trial %d: %+v", i, trials[i])
		if trials[i].ArtifactHitRate < 0.9 {
			t.Errorf("trial %d: artifact hit rate %.2f, want >= 0.9 (dense full-graph artifact should serve every cold source)",
				i, trials[i].ArtifactHitRate)
		}
	}
	sort.Slice(trials, func(a, b int) bool { return trials[a].ColdVsWarm < trials[b].ColdVsWarm })
	rep := trials[len(trials)/2]
	if rep.ColdVsWarm > 2 {
		t.Errorf("median artifact-served cold pass is %.2fx warm-cache latency, want <= 2x (cold %d ns/query, warm %d ns/query)",
			rep.ColdVsWarm, rep.ColdArtifactNsPerQuery, rep.WarmCacheNsPerQuery)
	}

	if out := os.Getenv("BENCH_PRECOMPUTE_OUT"); out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
