package extract

import (
	"context"
	"math"
	"sort"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
)

// The EXTRACT implementation as it stood before the key-path DP moved onto
// per-source downhill DAGs, kept verbatim as the reference the production
// code must reproduce bit for bit (see equivalence_test.go).

// refExtractCtx is the reference Table 4 loop over refPathDP.
func refExtractCtx(ctx context.Context, in Input) (*Result, error) {
	if err := validate(&in); err != nil {
		return nil, err
	}
	n := in.G.N()
	k := in.K
	maxLen := in.MaxPathLen
	if maxLen <= 0 {
		maxLen = (in.Budget + k - 1) / k
	}
	if maxLen < 1 {
		maxLen = 1
	}

	inH := make([]bool, n)
	sub := &graph.Subgraph{}
	addNode := func(u int) bool {
		if inH[u] {
			return false
		}
		inH[u] = true
		sub.Nodes = append(sub.Nodes, u)
		return true
	}
	for _, qi := range in.Queries {
		addNode(qi)
	}

	excluded := make([]bool, n) // destinations proven unreachable
	newNodes := 0
	res := &Result{Provenance: make(map[int]Provenance)}

	dp := newRefPathDP(in.G, n)
	// Destination events are gated on Recording so untraced extraction
	// never builds attribute slices.
	span := obs.SpanFromContext(ctx)

	for newNodes < in.Budget {
		if err := fault.FromContext(ctx); err != nil {
			return nil, err
		}
		pd := pickDestination(in.Combined, inH, excluded)
		if pd < 0 {
			break // nothing promising remains
		}
		actives := refActiveSources(in.R, pd, k)
		prevNew := newNodes
		pathsAdded := 0
		for _, src := range actives {
			if err := fault.FromContext(ctx); err != nil {
				return nil, err
			}
			remaining := in.Budget - newNodes
			if remaining <= 0 {
				break
			}
			budgetCap := maxLen
			if budgetCap > remaining {
				budgetCap = remaining
			}
			path, ok := dp.keyPath(in.R[src], in.Combined, in.Queries[src], pd, inH, budgetCap, in.NoSharing)
			if !ok {
				continue
			}
			pathsAdded++
			res.PathsFound++
			for idx, u := range path {
				if addNode(u) {
					newNodes++
					res.Provenance[u] = Provenance{Source: src, Dest: pd, Path: path}
				}
				if idx > 0 {
					prev := path[idx-1]
					a, b := prev, u
					if a > b {
						a, b = b, a
					}
					sub.PathEdges = append(sub.PathEdges, graph.Edge{U: a, V: b, W: in.G.Weight(a, b)})
				}
			}
		}
		if span.Recording() {
			span.AddEvent("destination", obs.Int("dest", pd), obs.Int("paths", pathsAdded),
				obs.Int("new_nodes", newNodes-prevNew), obs.Bool("excluded", pathsAdded == 0))
		}
		if pathsAdded == 0 {
			// pd cannot be connected to any active source; never retry it.
			excluded[pd] = true
			continue
		}
		res.Destinations = append(res.Destinations, pd)
	}

	dedupePathEdges(sub)
	sub.FillInduced(in.G)
	for _, u := range sub.Nodes {
		res.ExtractedGoodness += in.Combined[u]
	}
	res.Subgraph = sub
	return res, nil
}

// refActiveSources returns the indices (into R) of the k sources with the
// largest individual score at pd, i.e. the sources q_i with
// r(i, pd) ≥ r^(k)(i, pd). Ties resolve by source order, so exactly k
// sources are active (footnote 2 of the paper).
func refActiveSources(R [][]float64, pd, k int) []int {
	idx := make([]int, len(R))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return R[idx[a]][pd] > R[idx[b]][pd]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// refPathDP is the original Table 3 dynamic program, kept verbatim as the
// reference the downhill-DAG implementation must match path for path: it
// rescans all n nodes, sorts the candidate set and tests every adjacency
// entry on each call.
type refPathDP struct {
	g *graph.Graph
	// cand[v] is v's index in the candidate ordering, or -1.
	cand []int
	// order lists candidate nodes in descending score (topological for the
	// downhill DAG).
	order []int
	stamp []int // generation marks to avoid clearing cand each call
	gen   int
}

func newRefPathDP(g *graph.Graph, n int) *refPathDP {
	d := &refPathDP{g: g, cand: make([]int, n), stamp: make([]int, n)}
	return d
}

// keyPath discovers the best downhill path from source src to destination
// pd (Table 3): among all "specified prefix paths" that start at src,
// strictly descend r(i, ·), and end at pd, it returns the one maximizing
// (Σ_{v on path} r(Q, v)) / s where s is the number of nodes not already in
// H, subject to s ≤ maxNew. The returned path runs source→…→pd. ok is
// false when pd is unreachable by a downhill path within the budget.
func (d *refPathDP) keyPath(ri, combined []float64, src, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	scorePd := ri[pd]
	if ri[src] <= scorePd {
		return nil, false // source not uphill of destination: no downhill path
	}

	// Candidate set: every node strictly uphill of pd, plus pd itself.
	d.gen++
	d.order = d.order[:0]
	for v := 0; v < len(ri); v++ {
		if v == pd || ri[v] > scorePd {
			d.order = append(d.order, v)
		}
	}
	sort.SliceStable(d.order, func(a, b int) bool {
		return ri[d.order[a]] > ri[d.order[b]]
	})
	for idx, v := range d.order {
		d.cand[v] = idx
		d.stamp[v] = d.gen
	}
	isCand := func(v int) bool { return d.stamp[v] == d.gen }

	nc := len(d.order)
	width := maxNew + 1
	best := make([]float64, nc*width)
	parent := make([]int32, nc*width) // candidate-index*width+s of predecessor, -1 = none, -2 = unreached
	for i := range best {
		best[i] = math.Inf(-1)
		parent[i] = -2
	}
	srcIdx := d.cand[src]
	srcCost := 0
	if !inH[src] || noSharing {
		srcCost = 1 // sources are normally in H already; be safe
	}
	if srcCost > maxNew {
		return nil, false
	}
	if srcCost < width {
		best[srcIdx*width+srcCost] = combined[src]
		parent[srcIdx*width+srcCost] = -1
	}

	// Process in descending-score order; every edge we relax goes from a
	// strictly higher-scored node to the current one, so all predecessor
	// states are final (Table 3's "fill the extracted matrix C in
	// topological order").
	for oi, v := range d.order {
		if v == src {
			continue
		}
		cost := 1
		if inH[v] && !noSharing {
			cost = 0
		}
		nbrs, _ := d.g.Neighbors(v)
		vBase := oi * width
		for _, u := range nbrs {
			if !isCand(u) || ri[u] <= ri[v] {
				continue // not a specified downhill edge u → v
			}
			uBase := d.cand[u] * width
			for s := cost; s < width; s++ {
				prev := best[uBase+s-cost]
				if math.IsInf(prev, -1) {
					continue
				}
				if cand := prev + combined[v]; cand > best[vBase+s] {
					best[vBase+s] = cand
					parent[vBase+s] = int32(uBase + s - cost)
				}
			}
		}
	}

	// Output the path maximizing C_s(i, pd)/s with s ≥ 1 (Table 3 step 3).
	pdBase := d.cand[pd] * width
	bestS, bestRatio := -1, math.Inf(-1)
	for s := 1; s < width; s++ {
		if math.IsInf(best[pdBase+s], -1) {
			continue
		}
		if ratio := best[pdBase+s] / float64(s); ratio > bestRatio {
			bestRatio, bestS = ratio, s
		}
	}
	if bestS < 0 {
		return nil, false
	}
	// Reconstruct pd → src, then reverse.
	var rev []int
	state := int32(pdBase + bestS)
	for state != -1 {
		rev = append(rev, d.order[int(state)/width])
		state = parent[state]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}
