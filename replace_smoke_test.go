package ceps_test

import (
	"context"
	"testing"

	"ceps"
)

// TestReplaceSmoke is the `make replace-smoke` gate: on a tiny DBLP
// substrate it forms teams from real paper author lists, departs one
// member, and holds out a co-author of the same paper who is NOT on the
// team. The held-out author is one hop from the remaining members, so the
// two-hop pool must contain them; the floors below pin that the ranking
// (a) is deterministic across repeat runs, (b) recovers the held-out
// co-author in the top ten for most teams, and (c) actually runs through
// the serving substrate (blocked panel, cold misses, warm hits).
func TestReplaceSmoke(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithCache(16<<20), ceps.WithBipartite(ds.Papers))

	const trials = 8
	const teamSize = 3
	var (
		ran    int
		hits10 int
	)
	for p := 0; p < ds.Papers.Papers() && ran < trials; p++ {
		authors := ds.Papers.PaperAuthors(p)
		if len(authors) < teamSize+1 {
			continue
		}
		team := append([]int(nil), authors[:teamSize]...)
		departed := team[1]
		heldOut := authors[teamSize]
		ran++

		res, err := eng.ReplaceSubteam(context.Background(), team,
			ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
		if err != nil {
			t.Fatalf("paper %d: %v", p, err)
		}
		if res.Stages.SolveKernel != "blocked" {
			t.Errorf("paper %d: solve kernel %q", p, res.Stages.SolveKernel)
		}
		if res.Stages.CacheHits+res.Stages.CacheMisses < res.PoolSize {
			t.Errorf("paper %d: cache accounting %d hits + %d misses < pool %d",
				p, res.Stages.CacheHits, res.Stages.CacheMisses, res.PoolSize)
		}

		rank := -1
		for i, rep := range res.Replacements {
			if rep.Node == heldOut {
				rank = i
				break
			}
		}
		if rank < 0 {
			t.Errorf("paper %d: held-out co-author %d missing from the pool (size %d)",
				p, heldOut, res.PoolSize)
			continue
		}
		if rank < 10 {
			hits10++
		}

		// Rank stability: the warm repeat must reproduce the ranking
		// exactly, served from the cache.
		res2, err := eng.ReplaceSubteam(context.Background(), team,
			ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
		if err != nil {
			t.Fatalf("paper %d warm: %v", p, err)
		}
		compareReplacements(t, "cold vs warm smoke", res.Replacements, res2.Replacements)
		if res2.Stages.CacheMisses != 0 {
			t.Errorf("paper %d warm: %d cache misses, want 0", p, res2.Stages.CacheMisses)
		}
	}
	if ran < trials {
		t.Fatalf("substrate yielded only %d teams with %d+ authors, want %d", ran, teamSize+1, trials)
	}
	// The recovery floor: a held-out co-author of the team's own paper is
	// about the easiest possible replacement, so most trials must place
	// them in the top ten.
	if hits10 < trials/2 {
		t.Errorf("held-out co-author in top-10 for %d/%d teams, floor %d", hits10, ran, trials/2)
	}
}
