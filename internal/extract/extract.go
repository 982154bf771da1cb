// Package extract implements the paper's EXTRACT algorithm (§5): given the
// individual and combined closeness scores, it grows a small connected
// explanation subgraph H that maximizes the captured goodness within a node
// budget.
//
// The algorithm (Table 4) repeatedly (1) picks the most promising
// destination node pd — the highest combined score outside H (Eq. 11) —
// (2) determines the k active sources for pd (the k query nodes with the
// largest individual score at pd), and (3) for each active source runs the
// single-key-path dynamic program of Table 3 over the "specified downhill"
// DAG: node u precedes v w.r.t. source q_i iff r(i,u) > r(i,v), so paths
// always descend the source's score landscape and can be found by a DP in
// topological (score) order. Path length is measured in *new* nodes, which
// makes paths prefer to travel through nodes that are already part of H —
// exactly the sharing behaviour the paper wants from a budget-limited
// display.
package extract

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
)

// Input bundles everything EXTRACT needs.
type Input struct {
	// G is the graph being explained.
	G *graph.Graph
	// Queries are the query node ids; they are always part of the output.
	Queries []int
	// R[i][j] = r(q_i, j): individual closeness score of node j w.r.t.
	// query i (same order as Queries).
	R [][]float64
	// Combined[j] = r(Q, j): the combined goodness score under the chosen
	// query type.
	Combined []float64
	// K is the number of active sources per destination: Q for AND
	// queries, 1 for OR queries, k for K_softAND (§5, footnote 2). Values
	// outside [1, len(Queries)] are clamped.
	K int
	// Budget is the maximum number of non-query nodes in H (Problem 1's
	// b). Must be positive.
	Budget int
	// MaxPathLen caps the number of new nodes a single key path may
	// introduce. Zero means the paper's default ceil(Budget/K) (§7).
	MaxPathLen int
	// NoSharing disables the paper's path-sharing discount: normally a
	// path is charged only for *new* nodes ("we define the length of the
	// path as the number of new nodes … to encourage different paths to
	// share", §5), which makes later paths reuse the subgraph already
	// built. With NoSharing every node on a path costs 1 whether or not
	// it is already in H. This exists for the ablation benchmark; leave
	// it false for the paper's algorithm.
	NoSharing bool
}

// Result is the extracted subgraph plus bookkeeping that the evaluation
// metrics and the experiments use.
type Result struct {
	Subgraph *graph.Subgraph
	// ExtractedGoodness is CF(H) = Σ_{j∈H} r(Q, j) (§5).
	ExtractedGoodness float64
	// Destinations lists the chosen pd nodes in pick order.
	Destinations []int
	// PathsFound counts the key paths added to H.
	PathsFound int
	// Provenance records, for every non-query node of H, the key path
	// that introduced it — the paper's "interpretations on why such nodes
	// are good/close wrt the query set" (§5). Keys are node ids.
	Provenance map[int]Provenance
}

// Provenance explains one extracted node: it joined H on the key path from
// source query Source (an index into Input.Queries) toward destination
// Dest.
type Provenance struct {
	// Source is the index into Input.Queries of the path's source.
	Source int
	// Dest is the destination node pd the path was aimed at.
	Dest int
	// Path is the full source→destination key path the node arrived on.
	Path []int
}

// Extract runs the EXTRACT algorithm of Table 4.
func Extract(in Input) (*Result, error) {
	return ExtractCtx(context.Background(), in)
}

// ExtractCtx is Extract with cooperative cancellation: ctx is checked
// before each destination pick and before each key-path dynamic program —
// the two unbounded-work loops of Table 4 — so a fired deadline aborts
// within one path discovery.
func ExtractCtx(ctx context.Context, in Input) (*Result, error) {
	if err := validate(&in); err != nil {
		return nil, err
	}
	k := in.K
	maxLen := in.MaxPathLen
	if maxLen <= 0 {
		maxLen = (in.Budget + k - 1) / k
	}
	if maxLen < 1 {
		maxLen = 1
	}

	sc := getScratch(in)
	defer putScratch(sc)
	inH := sc.inH
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

	excluded := sc.excluded // destinations proven unreachable
	newNodes := 0
	res := &Result{Provenance: make(map[int]Provenance)}

	dp := &sc.dp
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
		actives := activeSources(sc.actives[:0], in.R, pd, k)
		sc.actives = actives
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
			path, ok := dp.keyPath(&sc.views[src], in.Combined, pd, inH, budgetCap, in.NoSharing)
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

func validate(in *Input) error {
	if in.G == nil {
		return fmt.Errorf("extract: nil graph")
	}
	n := in.G.N()
	if len(in.Queries) == 0 {
		return fmt.Errorf("%w: extract: empty query set", fault.ErrBadQuery)
	}
	seen := make(map[int]bool, len(in.Queries))
	for _, q := range in.Queries {
		if q < 0 || q >= n {
			return fmt.Errorf("%w: extract: query node %d out of range [0,%d)", fault.ErrBadQuery, q, n)
		}
		if seen[q] {
			return fmt.Errorf("%w: extract: duplicate query node %d", fault.ErrBadQuery, q)
		}
		seen[q] = true
	}
	if len(in.R) != len(in.Queries) {
		return fmt.Errorf("extract: %d score rows for %d queries", len(in.R), len(in.Queries))
	}
	for i, row := range in.R {
		if len(row) != n {
			return fmt.Errorf("extract: score row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if len(in.Combined) != n {
		return fmt.Errorf("extract: combined scores have %d entries, want %d", len(in.Combined), n)
	}
	if in.Budget <= 0 {
		return fmt.Errorf("%w: extract: budget %d must be positive", fault.ErrBadConfig, in.Budget)
	}
	if in.K < 1 {
		in.K = 1
	}
	if in.K > len(in.Queries) {
		in.K = len(in.Queries)
	}
	return nil
}

// pickDestination implements Eq. 11: the highest combined score among nodes
// outside H that have not been proven unreachable. Nodes with zero combined
// score are never picked — they contribute nothing to g(H).
func pickDestination(combined []float64, inH, excluded []bool) int {
	best, bestScore := -1, 0.0
	for j, s := range combined {
		if inH[j] || excluded[j] || s <= 0 {
			continue
		}
		if s > bestScore {
			best, bestScore = j, s
		}
	}
	return best
}

// activeSources returns the indices (into R) of the k sources with the
// largest individual score at pd, i.e. the sources q_i with
// r(i, pd) ≥ r^(k)(i, pd). Ties resolve by source order, so exactly k
// sources are active (footnote 2 of the paper). The result reuses idx's
// storage; an insertion sort keeps the order stable without allocating.
func activeSources(idx []int, R [][]float64, pd, k int) []int {
	idx = idx[:0]
	for i := range R {
		j := len(idx)
		idx = append(idx, i)
		for ; j > 0 && R[idx[j-1]][pd] < R[i][pd]; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	return idx[:min(k, len(idx))]
}

// dedupePathEdges removes duplicate path edges while keeping first-seen
// order.
func dedupePathEdges(sub *graph.Subgraph) {
	seen := make(map[[2]int]bool, len(sub.PathEdges))
	out := sub.PathEdges[:0]
	for _, e := range sub.PathEdges {
		key := [2]int{e.U, e.V}
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	sub.PathEdges = out
}

// scratch is the working memory of one ExtractCtx call. It is pooled so
// that a warm query allocates only what its answer keeps (paths,
// provenance, the subgraph), not buffers sized by the graph.
type scratch struct {
	inH, excluded []bool
	actives       []int
	views         []downhill // one per source, built on first use
	dp            pathDP
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(in Input) *scratch {
	sc := scratchPool.Get().(*scratch)
	n := in.G.N()
	sc.inH = resize(sc.inH, n)
	clear(sc.inH)
	sc.excluded = resize(sc.excluded, n)
	clear(sc.excluded)
	sc.views = resize(sc.views, len(in.Queries))
	for i := range sc.views {
		sc.views[i].reset(in.R[i], in.Queries[i])
	}
	sc.dp.g = in.G
	return sc
}

// putScratch drops the references into the caller's graph and score rows
// before pooling, so an idle scratch never pins them.
func putScratch(sc *scratch) {
	for i := range sc.views {
		sc.views[i].ri = nil
	}
	sc.dp.g = nil
	scratchPool.Put(sc)
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// downhill is source q_i's "specified downhill" DAG of Table 3 over the
// nodes scored strictly above floor in r(i, ·): u precedes v iff
// r(i, u) > r(i, v). The nodes are kept in one topological order — score
// descending, id ascending — and each node lists its strictly-uphill
// neighbours as ranks in that order, in its own adjacency order (a CSR).
// All key-path calls from the source share it; a destination scored at or
// below floor lowers floor by appending the newly admitted nodes, which
// all sort after the existing ones, so nothing built before moves.
type downhill struct {
	ri    []float64
	src   int
	floor float64
	order []int32 // DAG nodes in topological order
	rank  []int32 // rank[v] = v's index in order; meaningful for DAG nodes only
	off   []int32 // uphill ranks of order[k] are up[off[k]:off[k+1]]
	up    []int32
}

func (h *downhill) reset(ri []float64, src int) {
	h.ri, h.src = ri, src
	h.floor = math.Inf(1)
	h.order = h.order[:0]
	h.off = append(h.off[:0], 0)
	h.up = h.up[:0]
}

// lower extends the DAG to every node scored strictly above floor.
func (h *downhill) lower(g *graph.Graph, floor float64) {
	if floor >= h.floor {
		return
	}
	ri := h.ri
	start := len(h.order)
	for v, s := range ri {
		if s > floor && s <= h.floor {
			h.order = append(h.order, int32(v))
		}
	}
	h.floor = floor
	added := h.order[start:]
	slices.SortFunc(added, func(a, b int32) int {
		if c := cmp.Compare(ri[b], ri[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(h.rank) < len(ri) {
		h.rank = make([]int32, len(ri))
	}
	for k, v := range added {
		h.rank[v] = int32(start + k)
	}
	// Every strictly-uphill neighbour of an admitted node is scored above
	// floor too, so its rank is already assigned.
	for _, v := range added {
		nbrs, _ := g.Neighbors(int(v))
		for _, u := range nbrs {
			if ri[u] > ri[v] {
				h.up = append(h.up, h.rank[u])
			}
		}
		h.off = append(h.off, int32(len(h.up)))
	}
}

// pathDP holds the reusable buffers of the Table 3 dynamic program, so
// repeated key-path discoveries do not reallocate.
type pathDP struct {
	g *graph.Graph
	// best[row*width+s] is the largest captured goodness of a downhill
	// path from the source to the row's node with s new nodes; parent
	// holds its predecessor state (-1 at the source).
	best   []float64
	parent []int32
	// reach[row] is the smallest s with a finite best, width if none.
	reach []int32
	pdUp  []int32 // uphill ranks of the destination
	anc   []bool  // anc[row]: the row's node is an ancestor of pd
	stack []int32
}

// keyPath discovers the best downhill path from h's source to destination
// pd (Table 3): among all "specified prefix paths" that start at the
// source, strictly descend r(i, ·), and end at pd, it returns the one
// maximizing (Σ_{v on path} r(Q, v)) / s where s is the number of nodes not
// already in H, subject to s ≤ maxNew. The returned path runs
// source→…→pd. ok is false when pd is unreachable by a downhill path
// within the budget.
//
// Every predecessor of a node scored at or above r(i, pd) is itself
// scored strictly above r(i, pd), so the DP runs over the DAG prefix above
// pd, from the source's rank on (nothing ranked before the source is
// reachable from it), and then pd — and within that prefix only over
// pd's ancestors, the only rows a path to pd can use. Rows relax their
// uphill neighbours in adjacency order with a strict >, so ties resolve
// as in a DP over the whole candidate set.
func (d *pathDP) keyPath(h *downhill, combined []float64, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	ri, src := h.ri, h.src
	scorePd := ri[pd]
	if ri[src] <= scorePd {
		return nil, false // source not uphill of destination: no downhill path
	}
	srcCost := 0
	if !inH[src] || noSharing {
		srcCost = 1 // sources are normally in H already; be safe
	}
	if srcCost > maxNew {
		return nil, false
	}
	h.lower(d.g, scorePd)
	lo := int(h.rank[src])
	end := lo + 1 + sort.Search(len(h.order)-lo-1, func(k int) bool {
		return ri[h.order[lo+1+k]] <= scorePd
	})
	d.pdUp = d.pdUp[:0]
	nbrs, _ := d.g.Neighbors(pd)
	for _, u := range nbrs {
		if ri[u] > scorePd {
			d.pdUp = append(d.pdUp, h.rank[u])
		}
	}

	// Row r holds rank lo+r; the last row holds pd.
	rows := end - lo + 1
	width := maxNew + 1
	d.best = resize(d.best, rows*width)
	d.parent = resize(d.parent, rows*width)
	d.reach = resize(d.reach, rows)
	best, parent, reach := d.best, d.parent, d.reach

	uphill := func(row int) []int32 {
		if k := lo + row; k < end {
			return h.up[h.off[k]:h.off[k+1]]
		}
		return d.pdUp
	}

	// Only pd's ancestors below the source can lie on a key path; mark
	// them by walking the uphill lists back from pd. An ancestor's uphill
	// neighbours are ancestors too, so no other row is ever read.
	d.anc = resize(d.anc, rows)
	clear(d.anc)
	anc := d.anc
	stack := append(d.stack[:0], int32(rows-1))
	for len(stack) > 0 {
		row := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, ur := range uphill(row) {
			if r := int(ur) - lo; r > 0 && !anc[r] {
				anc[r] = true
				stack = append(stack, int32(r))
			}
		}
	}
	d.stack = stack
	for s := range width {
		best[s] = math.Inf(-1)
	}
	best[srcCost] = combined[src]
	parent[srcCost] = -1
	reach[0] = int32(srcCost)

	// Rows run in topological order, so every predecessor state is final
	// (Table 3's "fill the extracted matrix C in topological order").
	for row := 1; row < rows; row++ {
		v := pd
		if k := lo + row; k < end {
			if !anc[row] {
				continue
			}
			v = int(h.order[k])
		}
		cost := 1
		if inH[v] && !noSharing {
			cost = 0
		}
		gain := combined[v]
		vBase := row * width
		bv := best[vBase : vBase+width]
		for s := range bv {
			bv[s] = math.Inf(-1)
		}
		minS := width
		for _, ur := range uphill(row) {
			u := int(ur) - lo
			if u < 0 || int(reach[u]) == width {
				continue // ranked above the source, or unreached
			}
			uBase := u * width
			// A −∞ prev needs no test: −∞ + gain is −∞ or NaN, and neither
			// compares greater than anything.
			for s := cost + int(reach[u]); s < width; s++ {
				if cand := best[uBase+s-cost] + gain; cand > bv[s] {
					bv[s] = cand
					parent[vBase+s] = int32(uBase + s - cost)
					minS = min(minS, s)
				}
			}
		}
		reach[row] = int32(minS)
	}

	// Output the path maximizing C_s(i, pd)/s with s ≥ 1 (Table 3 step 3).
	pdBase := (rows - 1) * width
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
	// Walk pd → source to size the path, then fill it source-first.
	hops := 0
	for state := int32(pdBase + bestS); state != -1; state = parent[state] {
		hops++
	}
	path := make([]int, hops)
	state := int32(pdBase + bestS)
	path[hops-1] = pd
	for i := hops - 2; i >= 0; i-- {
		state = parent[state]
		path[i] = int(h.order[lo+int(state)/width])
	}
	return path, true
}
