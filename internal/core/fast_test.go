package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/fault"
	"ceps/internal/partition"
)

func TestPrePartitionAndFastCePS(t *testing.T) {
	ds := testDataset(t, 11)
	pt, err := PrePartition(ds.Graph, 6, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.PartitionTime <= 0 {
		t.Error("partition time not recorded")
	}

	rng := rand.New(rand.NewSource(4))
	queries, err := ds.RandomQueries(rng, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Budget = 10

	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Results are in original ids.
	for _, q := range queries {
		if !fast.Subgraph.Has(q) {
			t.Fatalf("query %d missing", q)
		}
	}
	for _, u := range fast.Subgraph.Nodes {
		if u < 0 || u >= ds.Graph.N() {
			t.Fatalf("node %d not an original id", u)
		}
	}
	for _, e := range fast.Subgraph.PathEdges {
		if !ds.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("path edge (%d,%d) not in original graph", e.U, e.V)
		}
	}
	// The working graph must be smaller than the full graph (that is the
	// whole point) yet contain all queries.
	if fast.WorkGraph.N() >= ds.Graph.N() {
		t.Errorf("working graph has %d nodes, full graph %d", fast.WorkGraph.N(), ds.Graph.N())
	}
	if fast.ToOrig == nil {
		t.Fatal("fast result should carry an id mapping")
	}
	// Metrics work in working-graph space.
	if nr := fast.NRatio(); nr <= 0 || nr > 1 {
		t.Errorf("fast NRatio = %v", nr)
	}
	if er, err := fast.ERatio(); err != nil || er < 0 || er > 1 {
		t.Errorf("fast ERatio = %v, %v", er, err)
	}
}

func TestRelRatioAgainstFullRun(t *testing.T) {
	ds := testDataset(t, 13)
	cfg := fastConfig()
	cfg.Budget = 10
	rng := rand.New(rand.NewSource(5))
	queries, err := ds.RandomQueries(rng, 2, true)
	if err != nil {
		t.Fatal(err)
	}

	full, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rel, err := RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0 || rel > 1.5 {
		t.Fatalf("RelRatio = %v, expected a sane quality ratio", rel)
	}
	// A full run compared with itself is exactly 1.
	self, err := RelRatio(full, full)
	if err != nil {
		t.Fatal(err)
	}
	if self != 1 {
		t.Fatalf("self RelRatio = %v, want 1", self)
	}
	// Using a fast result as the reference is rejected.
	if _, err := RelRatio(fast, full); err == nil {
		t.Error("fast reference should be rejected")
	}
}

func TestFastCePSMorePartitionsSmallerWorkGraph(t *testing.T) {
	ds := testDataset(t, 17)
	cfg := fastConfig()
	queries := []int{ds.Repository[0][0], ds.Repository[0][1]} // same community
	var prevN int
	for i, p := range []int{2, 8, 24} {
		pt, err := PrePartition(ds.Graph, p, partition.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := pt.CePS(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := fast.WorkGraph.N()
		if i > 0 && n > prevN {
			t.Errorf("p=%d work graph grew: %d > %d", p, n, prevN)
		}
		prevN = n
	}
}

func TestFastCePSSinglePartitionEqualsFull(t *testing.T) {
	// With p = 1 the partition union is the whole graph, so Fast CePS must
	// reproduce the full-graph answer exactly.
	ds := testDataset(t, 83)
	cfg := fastConfig()
	cfg.Budget = 8
	queries := []int{ds.Repository[0][0], ds.Repository[2][0]}
	full, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 1, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.WorkGraph.N() != ds.Graph.N() {
		t.Fatalf("p=1 work graph has %d nodes, want %d", fast.WorkGraph.N(), ds.Graph.N())
	}
	if len(full.Subgraph.Nodes) != len(fast.Subgraph.Nodes) {
		t.Fatalf("p=1 subgraph size differs: %d vs %d", len(fast.Subgraph.Nodes), len(full.Subgraph.Nodes))
	}
	for i := range full.Subgraph.Nodes {
		if full.Subgraph.Nodes[i] != fast.Subgraph.Nodes[i] {
			t.Fatal("p=1 subgraph differs from full run")
		}
	}
	rel, err := RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel != 1 {
		t.Fatalf("p=1 RelRatio = %v, want exactly 1", rel)
	}
}

func TestFastCePSValidation(t *testing.T) {
	ds := testDataset(t, 19)
	pt, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.CePS(nil, fastConfig()); err == nil {
		t.Error("empty queries should fail")
	}
	if _, err := pt.CePS([]int{-1}, fastConfig()); err == nil {
		t.Error("bad query should fail")
	}
	bad := fastConfig()
	bad.Budget = 0
	if _, err := pt.CePS([]int{1}, bad); err == nil {
		t.Error("bad config should fail")
	}
	if _, err := PrePartition(nil, 4, partition.Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := PrePartition(ds.Graph, 0, partition.Options{}); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestFastCePSQualityReasonable(t *testing.T) {
	// With queries in one community and a community-respecting partition,
	// Fast CePS should retain most of the full run's captured goodness.
	ds := testDataset(t, 23)
	cfg := fastConfig()
	cfg.Budget = 12
	queries := []int{ds.Repository[1][0], ds.Repository[1][2]}
	full, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 3, partition.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel < 0.5 {
		t.Errorf("RelRatio = %v; partitioned quality collapsed", rel)
	}
}

// TestFastCePSDisconnectedUnionAnswerFallsBack pins a query whose union
// connects the three authors only through detours longer than a key path
// may run: on the union, EXTRACT never reaches author 6139 and returns a
// subgraph with that query node stranded. Such a union is degenerate, so
// the answer must come from the full graph (or be refused under
// NoFallback), and it must be connected.
func TestFastCePSDisconnectedUnionAnswerFallsBack(t *testing.T) {
	ds, err := dblp.Generate(dblp.Scale(dblp.DefaultConfig(), 4))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 20, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{6139, 14724, 15801}
	if _, _, _, _, why := pt.queryUnion(queries); why != "" {
		t.Fatalf("the union must pass the up-front checks, got %q", why)
	}
	res, err := pt.CePS(queries, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback == nil || !strings.Contains(res.Fallback.Reason, "disconnected") {
		t.Fatalf("Fallback = %+v, want a disconnected-answer fallback", res.Fallback)
	}
	if res.Degraded == nil || res.Degraded.Mode != "full_graph_fallback" {
		t.Fatalf("Degraded = %+v, want full_graph_fallback", res.Degraded)
	}
	for _, q := range queries {
		if !res.Subgraph.Has(q) {
			t.Fatalf("query %d missing from %v", q, res.Subgraph.Nodes)
		}
	}
	if !res.Subgraph.Connected() {
		t.Fatalf("fallback answer %v is disconnected", res.Subgraph.Nodes)
	}

	pt.NoFallback = true
	if _, err := pt.CePS(queries, DefaultConfig()); !errors.Is(err, fault.ErrDegeneratePartition) {
		t.Fatalf("NoFallback err = %v, want ErrDegeneratePartition", err)
	}
}
