package graph

import (
	"fmt"
	"sort"
)

// Induced returns the subgraph induced by the given node set together with
// the mapping between the two id spaces. The i-th entry of origIDs is the
// original id of subgraph node i; the returned map goes the other way.
// Duplicate nodes in the input are ignored. Labels are carried over.
//
// Induced is the workhorse of Fast CePS (Table 5, Step 1): the union of the
// partitions containing the query nodes is materialized as a standalone
// graph that the full CePS pipeline then runs on.
func (g *Graph) Induced(nodes []int) (sub *Graph, origIDs []int, toSub map[int]int, err error) {
	uniq := make([]int, 0, len(nodes))
	seen := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		if u < 0 || u >= g.N() {
			return nil, nil, nil, fmt.Errorf("graph: induced node %d out of range [0,%d)", u, g.N())
		}
		if !seen[u] {
			seen[u] = true
			uniq = append(uniq, u)
		}
	}
	if len(uniq) == 0 {
		return nil, nil, nil, fmt.Errorf("graph: induced subgraph over empty node set")
	}
	sort.Ints(uniq)
	toSub = make(map[int]int, len(uniq))
	for i, u := range uniq {
		toSub[u] = i
	}
	b := NewBuilder(len(uniq))
	if g.Labeled() {
		for i, u := range uniq {
			b.SetLabel(i, g.labels[u])
		}
	}
	for i, u := range uniq {
		nbrs, ws := g.Neighbors(u)
		for j, v := range nbrs {
			if sv, ok := toSub[v]; ok && u < v {
				b.AddEdge(i, sv, ws[j])
			}
		}
	}
	sub, err = b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return sub, uniq, toSub, nil
}

// Subgraph is the output of an extraction algorithm: a small node set over
// the original graph, the path edges the extractor walked, and the full set
// of original-graph edges induced on the node set (used for display and for
// the ERatio metric).
type Subgraph struct {
	// Nodes are original-graph ids in insertion order (query nodes first).
	Nodes []int
	// PathEdges are the edges of the key paths that justified each node's
	// inclusion, i.e. the "explanation" edges in the paper's sense.
	PathEdges []Edge
	// InducedEdges are all original-graph edges with both endpoints in
	// Nodes.
	InducedEdges []Edge
}

// Has reports whether node u (original id) is in the subgraph.
func (s *Subgraph) Has(u int) bool {
	for _, v := range s.Nodes {
		if v == u {
			return true
		}
	}
	return false
}

// Size returns the number of nodes.
func (s *Subgraph) Size() int { return len(s.Nodes) }

// FillInduced recomputes InducedEdges from the parent graph.
func (s *Subgraph) FillInduced(g *Graph) {
	in := make(map[int]bool, len(s.Nodes))
	for _, u := range s.Nodes {
		in[u] = true
	}
	s.InducedEdges = s.InducedEdges[:0]
	for _, u := range s.Nodes {
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			if u < v && in[v] {
				s.InducedEdges = append(s.InducedEdges, Edge{U: u, V: v, W: ws[i]})
			}
		}
	}
	sort.Slice(s.InducedEdges, func(i, j int) bool {
		a, b := s.InducedEdges[i], s.InducedEdges[j]
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
}

// Connected reports whether InducedEdges join all of Nodes into one
// component. An empty subgraph counts as connected.
func (s *Subgraph) Connected() bool {
	if len(s.Nodes) == 0 {
		return true
	}
	adj := make(map[int][]int, len(s.Nodes))
	for _, e := range s.InducedEdges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	seen := map[int]bool{s.Nodes[0]: true}
	stack := []int{s.Nodes[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	for _, u := range s.Nodes {
		if !seen[u] {
			return false
		}
	}
	return true
}
