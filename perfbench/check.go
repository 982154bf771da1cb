package main

import (
	"fmt"

	"ceps"
)

// checkCePS validates one center-piece answer against Problem 1: every query
// node is in the subgraph, the subgraph is connected in g, and it holds at
// most budget nodes besides the query nodes.
func checkCePS(g *ceps.Graph, queries []int, budget int, res *ceps.Result) error {
	if res == nil || res.Subgraph == nil {
		return fmt.Errorf("no subgraph")
	}
	nodes := res.Subgraph.Nodes
	in := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		if u < 0 || u >= g.N() {
			return fmt.Errorf("node %d out of range", u)
		}
		if in[u] {
			return fmt.Errorf("node %d listed twice", u)
		}
		in[u] = true
	}
	for _, q := range queries {
		if !in[q] {
			return fmt.Errorf("query node %d missing from the subgraph", q)
		}
	}
	if extra := len(nodes) - len(queries); extra > budget {
		return fmt.Errorf("%d non-query nodes exceed budget %d", extra, budget)
	}
	// Connectivity: a BFS from the first node over edges of g whose both
	// ends are in the subgraph must reach every node.
	seen := map[int]bool{nodes[0]: true}
	frontier := []int{nodes[0]}
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if in[v] && !seen[v] {
				seen[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	if len(seen) != len(nodes) {
		return fmt.Errorf("subgraph is disconnected: %d of %d nodes reachable", len(seen), len(nodes))
	}
	return nil
}

// checkReplace validates one replacement ranking: no team member is ranked,
// no candidate is ranked twice, and scores are non-increasing. It returns
// the 1-based rank of heldOut, or 0 when heldOut is not in the ranking (the
// capped pool left them out): that is rank ∞ for MRR and hits@10, not an
// error.
func checkReplace(team []int, heldOut int, res *ceps.ReplaceResult) (rank int, err error) {
	if res == nil {
		return 0, fmt.Errorf("no result")
	}
	member := make(map[int]bool, len(team))
	for _, m := range team {
		member[m] = true
	}
	seen := make(map[int]bool, len(res.Replacements))
	for i, r := range res.Replacements {
		if member[r.Node] {
			return 0, fmt.Errorf("team member %d ranked at %d", r.Node, i+1)
		}
		if seen[r.Node] {
			return 0, fmt.Errorf("candidate %d ranked twice", r.Node)
		}
		seen[r.Node] = true
		if i > 0 && r.Score > res.Replacements[i-1].Score {
			return 0, fmt.Errorf("score rises at rank %d (%g > %g)", i+1, r.Score, res.Replacements[i-1].Score)
		}
		if r.Node == heldOut {
			rank = i + 1
		}
	}
	return rank, nil
}
