package graph

import (
	"strings"
	"testing"
)

func TestInducedBasic(t *testing.T) {
	b := NewBuilder(5)
	b.SetLabel(0, "a")
	b.SetLabel(1, "b")
	b.SetLabel(2, "c")
	b.SetLabel(3, "d")
	b.SetLabel(4, "e")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 4, 4)
	b.AddEdge(0, 4, 5)
	g := b.MustBuild()

	sub, orig, toSub, err := g.Induced([]int{4, 0, 1, 0}) // dup + unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N())
	}
	// orig must be sorted original ids.
	want := []int{0, 1, 4}
	for i, u := range want {
		if orig[i] != u {
			t.Fatalf("origIDs = %v, want %v", orig, want)
		}
		if toSub[u] != i {
			t.Fatalf("toSub[%d] = %d, want %d", u, toSub[u], i)
		}
	}
	// Edges (0,1) and (0,4) survive; (1,2) etc. do not.
	if sub.M() != 2 {
		t.Fatalf("sub.M = %d, want 2", sub.M())
	}
	if w := sub.Weight(toSub[0], toSub[4]); w != 5 {
		t.Errorf("weight(0,4) in sub = %v, want 5", w)
	}
	if sub.Label(toSub[4]) != "e" {
		t.Errorf("label carried over = %q, want e", sub.Label(toSub[4]))
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedErrors(t *testing.T) {
	g := path(t, 3)
	if _, _, _, err := g.Induced(nil); err == nil {
		t.Error("empty node set should fail")
	}
	if _, _, _, err := g.Induced([]int{5}); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, _, _, err := g.Induced([]int{-1}); err == nil {
		t.Error("negative node should fail")
	}
}

func TestInducedSingleton(t *testing.T) {
	g := path(t, 3)
	sub, _, _, err := g.Induced([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 1 || sub.M() != 0 {
		t.Fatalf("singleton induced: N=%d M=%d", sub.N(), sub.M())
	}
}

func TestSubgraphFillInduced(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()

	s := &Subgraph{Nodes: []int{0, 1, 2}}
	s.FillInduced(g)
	if len(s.InducedEdges) != 3 {
		t.Fatalf("InducedEdges = %v, want the 0-1-2 triangle", s.InducedEdges)
	}
	for _, e := range s.InducedEdges {
		if e.U == 3 || e.V == 3 {
			t.Errorf("edge %v touches node outside subgraph", e)
		}
	}
	if !s.Has(1) || s.Has(3) {
		t.Error("Has membership wrong")
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d, want 3", s.Size())
	}
}

func TestSubgraphConnected(t *testing.T) {
	// 0-1-2 path plus an edge 3-4: {0,1,2} is connected, {0,2} is not
	// (its only link runs through 1), and adding 3 strands it.
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustBuild()
	for _, c := range []struct {
		nodes []int
		want  bool
	}{
		{nil, true},
		{[]int{3}, true},
		{[]int{0, 1, 2}, true},
		{[]int{2, 0, 1}, true},
		{[]int{0, 2}, false},
		{[]int{0, 1, 2, 3}, false},
		{[]int{3, 4}, true},
	} {
		s := &Subgraph{Nodes: c.nodes}
		s.FillInduced(g)
		if got := s.Connected(); got != c.want {
			t.Errorf("Connected(%v) = %v, want %v", c.nodes, got, c.want)
		}
	}
}

func TestSubgraphWriteDOT(t *testing.T) {
	b := NewBuilder(3)
	b.SetLabel(0, "Rakesh Agrawal")
	b.SetLabel(1, "Jiawei Han")
	b.SetLabel(2, "Philip Yu")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.MustBuild()

	s := &Subgraph{Nodes: []int{0, 1, 2}, PathEdges: []Edge{{0, 1, 1}}}
	s.FillInduced(g)
	var sb strings.Builder
	if err := s.WriteDOT(&sb, g, DOTOptions{Highlight: []int{0}, IncludeInduced: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Rakesh Agrawal", "fillcolor=gold", "0 -- 1", "style=dotted"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
