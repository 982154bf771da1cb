package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ceps/internal/bipartite"
	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
	"ceps/internal/rwr"
)

// This file implements the title paper's own workload — Subteam
// Replacement — as a first-class query type on the Runner. Given a team,
// the members departing from it, and a candidate pool, each candidate c is
// scored by a weighted combination of two kernels (REFORM's decomposition
// of the replacement score into graph-similarity components):
//
//   - RWR proximity: the mean random-walk-with-restart score from c to the
//     remaining members, r(c, m). All candidates solve as ONE blocked
//     multi-source panel through the same Step 1 funnel every other
//     query type uses, so the vectors ride the score cache, the bounded
//     solve pool, and (when enabled) the cross-request coalescer — and the
//     answers are bit-identical with those layers on or off.
//   - Structural overlap: the shared-collaborator kernel against the
//     departed members — co-authored-paper counts when a bipartite
//     author–paper substrate is attached, otherwise a weighted
//     common-neighbor kernel on the projected graph.
//
// The default candidate pool is the 2-hop neighborhood of the remaining
// team; a densest-subgraph seeding variant (Charikar's greedy peeling, per
// Fang et al.) and an explicit caller-supplied pool are the alternatives.

// ReplacePool selects the candidate-pool strategy.
type ReplacePool int

const (
	// PoolTwoHop (the default) takes every node within two hops of the
	// remaining team, excluding the team itself.
	PoolTwoHop ReplacePool = iota
	// PoolDensest seeds the pool from the densest subgraph (by greedy
	// peeling) of the two-hop neighborhood induced together with the
	// remaining team — candidates embedded in the team's densest
	// collaboration cluster.
	PoolDensest
	// PoolExplicit uses the caller-supplied candidate list verbatim
	// (minus any team members).
	PoolExplicit
)

// String names the strategy for metrics labels and result fields.
func (p ReplacePool) String() string {
	switch p {
	case PoolDensest:
		return "densest"
	case PoolExplicit:
		return "explicit"
	default:
		return "two_hop"
	}
}

// ReplaceWeights blends the two score components. Both must be
// non-negative and at least one positive; they need not sum to 1 (each
// component is max-normalized over the pool before blending).
type ReplaceWeights struct {
	// RWR weighs the random-walk proximity of a candidate to the
	// remaining team.
	RWR float64
	// Overlap weighs the structural overlap of a candidate with the
	// departed members.
	Overlap float64
}

// DefaultReplaceWeights leans on the walk (which sees the whole graph)
// with a meaningful structural-overlap correction toward candidates who
// already share collaborators or papers with the departed members.
func DefaultReplaceWeights() ReplaceWeights { return ReplaceWeights{RWR: 0.7, Overlap: 0.3} }

// DefaultMaxReplaceCandidates caps the candidate panel when the caller
// does not: two-hop neighborhoods on dense graphs can reach thousands of
// nodes, and every candidate is one panel column.
const DefaultMaxReplaceCandidates = 256

// ReplaceSpec is one subteam-replacement query.
type ReplaceSpec struct {
	// Team is the full team before the departure (node ids).
	Team []int
	// Departing lists the members leaving; must be a non-empty strict
	// subset of Team.
	Departing []int
	// Candidates is the explicit candidate pool (PoolExplicit); team
	// members are filtered out. Empty means "build the pool with the
	// configured strategy".
	Candidates []int
	// Pool selects the pool-building strategy when Candidates is empty.
	Pool ReplacePool
	// MaxCandidates caps the scored pool (0 = DefaultMaxReplaceCandidates,
	// negative = no cap). Pool order is deterministic, so the cap is too.
	MaxCandidates int
	// TopN bounds the returned ranking (0 = 10, negative = all).
	TopN int
	// Weights blends the components; the zero value means
	// DefaultReplaceWeights.
	Weights ReplaceWeights
	// Bipartite, when non-nil, switches the overlap kernel to
	// co-authored-paper counts on the author–paper incidence structure.
	// Authors beyond its range fall back to the projected-graph kernel.
	Bipartite *bipartite.Graph
	// Exact routes the candidate panel through the dense pre-solved
	// inverse (rwr.PreSolver) instead of the iterative kernel — §6's
	// precompute strategy, viable only below the pre-solve node limit.
	// Exact scores are the converged fixed point, not the m-sweep
	// iterate, so they may differ from the iterative path in the last
	// few ulps; the ranking contract (deterministic, reproducible) holds
	// either way.
	Exact bool
}

// Replacement is one ranked candidate with its score breakdown.
type Replacement struct {
	// Node is the candidate's node id.
	Node int
	// Score is the blended, max-normalized score in [0, 1].
	Score float64
	// RWRProximity is the raw mean walk score from the candidate to the
	// remaining members.
	RWRProximity float64
	// Overlap is the raw structural-overlap kernel value against the
	// departed members.
	Overlap float64
}

// ReplaceResult is the outcome of one subteam-replacement query.
type ReplaceResult struct {
	// Replacements is the ranking, best first (ties broken by node id).
	Replacements []Replacement
	// Team, Departing and Remaining echo the resolved query (private
	// copies).
	Team, Departing, Remaining []int
	// PoolStrategy names how the candidate pool was built
	// ("two_hop" | "densest" | "explicit").
	PoolStrategy string
	// PoolSize is the number of candidates scored (after the cap).
	PoolSize int
	// Exact reports whether the dense pre-solved inverse answered the
	// panel.
	Exact bool
	// Stages attributes Elapsed to the pipeline stages: Partition is pool
	// construction, Solve the candidate panel, Combine the kernel blend
	// and ranking. Cache and coalescer counters describe the panel's trip
	// through the serving layer.
	Stages StageTimings
	// Degraded is non-nil when the panel was solved at reduced fidelity
	// (the resilience layer's relaxed-tolerance path).
	Degraded *Degradation
	// Elapsed is the wall-clock response time.
	Elapsed time.Duration
	// TraceID is the span-trace id, "" when tracing is off (set by the
	// Engine).
	TraceID string
}

// normalizeWeights validates and defaults the blend weights.
func normalizeWeights(w ReplaceWeights) (ReplaceWeights, error) {
	if w == (ReplaceWeights{}) {
		return DefaultReplaceWeights(), nil
	}
	if w.RWR < 0 || w.Overlap < 0 || !(w.RWR+w.Overlap > 0) {
		return w, fmt.Errorf("%w: replacement score weights (rwr=%g, overlap=%g) must be non-negative with a positive sum", fault.ErrBadConfig, w.RWR, w.Overlap)
	}
	return w, nil
}

// resolveReplaceSpec validates a spec against the graph and splits the
// team into remaining and departing member sets.
func resolveReplaceSpec(g *graph.Graph, spec ReplaceSpec) (remaining, departing []int, err error) {
	if err := checkQueries(g, spec.Team); err != nil {
		return nil, nil, err
	}
	if len(spec.Departing) == 0 {
		return nil, nil, fmt.Errorf("%w: no departing members given", fault.ErrBadQuery)
	}
	inTeam := make(map[int]bool, len(spec.Team))
	for _, m := range spec.Team {
		inTeam[m] = true
	}
	leaving := make(map[int]bool, len(spec.Departing))
	for _, d := range spec.Departing {
		if !inTeam[d] {
			return nil, nil, fmt.Errorf("%w: departing member %d is not on the team", fault.ErrBadQuery, d)
		}
		if leaving[d] {
			return nil, nil, fmt.Errorf("%w: duplicate departing member %d", fault.ErrBadQuery, d)
		}
		leaving[d] = true
		departing = append(departing, d)
	}
	for _, m := range spec.Team {
		if !leaving[m] {
			remaining = append(remaining, m)
		}
	}
	if len(remaining) == 0 {
		return nil, nil, fmt.Errorf("%w: every team member is departing; no remaining subteam to anchor the walk", fault.ErrBadQuery)
	}
	return remaining, departing, nil
}

// buildReplacePool constructs the deterministic candidate pool for a
// resolved spec. Team members never appear in the pool.
func buildReplacePool(g *graph.Graph, spec ReplaceSpec, remaining []int) ([]int, ReplacePool, error) {
	inTeam := make(map[int]bool, len(spec.Team))
	for _, m := range spec.Team {
		inTeam[m] = true
	}
	var pool []int
	strategy := spec.Pool
	if len(spec.Candidates) > 0 {
		strategy = PoolExplicit
		seen := make(map[int]bool, len(spec.Candidates))
		for _, c := range spec.Candidates {
			if c < 0 || c >= g.N() {
				return nil, strategy, fmt.Errorf("%w: candidate %d out of range [0,%d)", fault.ErrBadQuery, c, g.N())
			}
			if inTeam[c] || seen[c] {
				continue
			}
			seen[c] = true
			pool = append(pool, c)
		}
	} else {
		pool = twoHopPool(g, remaining, inTeam)
		if strategy == PoolDensest {
			if dense := densestPool(g, remaining, pool, inTeam); len(dense) > 0 {
				pool = dense
			}
		}
	}
	if len(pool) == 0 {
		return nil, strategy, fmt.Errorf("%w: empty candidate pool (no non-team nodes within reach; supply candidates explicitly)", fault.ErrBadQuery)
	}
	max := spec.MaxCandidates
	if max == 0 {
		max = DefaultMaxReplaceCandidates
	}
	if max > 0 && len(pool) > max {
		pool = pool[:max]
	}
	// The panel order is ascending node id: deterministic regardless of
	// strategy, and contiguous sources batch better in the blocked kernel.
	pool = append([]int(nil), pool...)
	sort.Ints(pool)
	return pool, strategy, nil
}

// twoHopPool returns the nodes within two hops of the remaining team,
// excluding the team, in BFS order (closer candidates first, so a pool cap
// keeps the nearest ones).
func twoHopPool(g *graph.Graph, remaining []int, inTeam map[int]bool) []int {
	var pool []int
	g.BFS(remaining, func(node, dist int) {
		if dist == 0 || dist > 2 || inTeam[node] {
			return
		}
		pool = append(pool, node)
	})
	return pool
}

// densestPool seeds candidates from the densest subgraph of the two-hop
// neighborhood united with the remaining team: Charikar's greedy peeling
// (repeatedly remove the minimum-weighted-degree node; the best-density
// prefix is a 1/2-approximation of the densest subgraph). Determinism:
// ties peel the smallest induced id, and the result is reported in
// ascending original id order.
func densestPool(g *graph.Graph, remaining, twoHop []int, inTeam map[int]bool) []int {
	nodes := append(append([]int(nil), remaining...), twoHop...)
	sort.Ints(nodes)
	sub, orig, _, err := g.Induced(nodes)
	if err != nil || sub.N() == 0 {
		return nil
	}
	n := sub.N()
	deg := make([]float64, n)
	var curW float64
	for u := 0; u < n; u++ {
		deg[u] = sub.WeightedDegree(u)
		curW += deg[u]
	}
	curW /= 2
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	removed := make([]int, 0, n)
	bestDensity := curW / float64(n)
	bestRemoved := 0
	for m := n; m > 1; m-- {
		// Lazy min scan: O(n) per round, O(n²) total — fine for the
		// neighborhood scales a seeding pass runs at.
		min := -1
		for u := 0; u < n; u++ {
			if alive[u] && (min < 0 || deg[u] < deg[min]) {
				min = u
			}
		}
		alive[min] = false
		curW -= deg[min]
		nbrs, wts := sub.Neighbors(min)
		for i, v := range nbrs {
			if alive[v] {
				deg[v] -= wts[i]
			}
		}
		removed = append(removed, min)
		if d := curW / float64(m-1); d > bestDensity {
			bestDensity = d
			bestRemoved = len(removed)
		}
	}
	peeled := make(map[int]bool, bestRemoved)
	for _, u := range removed[:bestRemoved] {
		peeled[u] = true
	}
	var pool []int
	for u := 0; u < n; u++ {
		if !peeled[u] && !inTeam[orig[u]] {
			pool = append(pool, orig[u])
		}
	}
	return pool
}

// overlapScore computes the structural-overlap kernel of candidate c
// against the departed members: co-authored-paper counts on the bipartite
// substrate when one covers both endpoints, otherwise the projected-graph
// kernel — direct edge weight plus the weighted common-neighbor mass
// Σ min(w(c,u), w(d,u)) over shared collaborators u.
func overlapScore(g *graph.Graph, bp *bipartite.Graph, c int, departing []int) float64 {
	var total float64
	for _, d := range departing {
		if bp != nil && c < bp.Authors() && d < bp.Authors() {
			total += float64(bp.CoAuthoredPapers(c, d))
			continue
		}
		total += g.Weight(c, d)
		cn, cw := g.Neighbors(c)
		dn, dw := g.Neighbors(d)
		i, j := 0, 0
		for i < len(cn) && j < len(dn) {
			switch {
			case cn[i] == dn[j]:
				if cw[i] < dw[j] {
					total += cw[i]
				} else {
					total += dw[j]
				}
				i++
				j++
			case cn[i] < dn[j]:
				i++
			default:
				j++
			}
		}
	}
	return total
}

// exactScoresSet answers a candidate panel from the dense pre-solved
// inverse (I − cW̃)⁻¹. When the serving layer carries a precompute tier
// with a dense-class artifact bound for this runner's key space, the rows
// come straight from the mmapped file — the artifact's rows are
// Float64bits-identical to PreSolver.Scores, so this swap never changes an
// answer. Otherwise the inverse is built lazily on first use (in parallel
// when a solve pool suggests a worker count) and shared by every
// subsequent exact query on this Runner. Graphs beyond
// rwr.DefaultPreSolveLimit nodes refuse with ErrBadConfig — the inverse is
// O(n²) memory and O(n³) to factor, the precompute strategy the paper
// reserves for small graphs.
func (r *Runner) exactScoresSet(queries []int) ([][]float64, error) {
	if R, ok := r.exactFromArtifacts(queries); ok {
		return R, nil
	}
	r.preOnce.Do(func() {
		workers := 0
		if r.sv.Pool != nil {
			workers = r.sv.Pool.Size()
		}
		r.pre, r.preErr = rwr.NewPreSolverParallel(r.solver, 0, workers)
	})
	if r.preErr != nil {
		return nil, fmt.Errorf("%w: exact candidate scoring unavailable: %v", fault.ErrBadConfig, r.preErr)
	}
	return r.pre.ScoresSet(queries)
}

// exactReader is the dense-class read the precompute tier offers beyond
// the plain rwr.ArtifactReader contract: rows bit-identical to the dense
// inverse, the only class exactScoresSet may substitute for it.
type exactReader interface {
	ReadExact(space uint64, source int) ([]float64, bool)
}

// exactFromArtifacts serves the whole candidate panel from a bound
// dense-class artifact, all or nothing: a partial panel would silently mix
// exact rows with rows the caller still expects to be exact.
func (r *Runner) exactFromArtifacts(queries []int) ([][]float64, bool) {
	er, ok := r.sv.Artifacts.(exactReader)
	if !ok {
		return nil, false
	}
	R := make([][]float64, len(queries))
	for i, q := range queries {
		vec, ok := er.ReadExact(r.space, q)
		if !ok || len(vec) != r.g.N() {
			return nil, false
		}
		R[i] = vec
	}
	return R, true
}

// ReplaceSubteam answers a subteam-replacement query with the cached
// solver; see ReplaceSubteamCtx.
func (r *Runner) ReplaceSubteam(spec ReplaceSpec, cfg Config) (*ReplaceResult, error) {
	return r.ReplaceSubteamCtx(context.Background(), spec, cfg)
}

// ReplaceSubteamCtx scores and ranks replacement candidates for the
// departing members of spec.Team. The candidate panel solves through the
// same serving funnel as every other query type (cache, pool, coalescer)
// and is bit-identical with those layers on or off; pool construction and
// ranking are deterministic. cfg.RWR must match the Runner's baked
// configuration.
func (r *Runner) ReplaceSubteamCtx(ctx context.Context, spec ReplaceSpec, cfg Config) (*ReplaceResult, error) {
	if err := r.check(spec.Team, cfg); err != nil {
		return nil, err
	}
	weights, err := normalizeWeights(spec.Weights)
	if err != nil {
		return nil, err
	}
	remaining, departing, err := resolveReplaceSpec(r.g, spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	_, poolSpan := obs.StartSpan(ctx, "replace_pool")
	poolStart := time.Now()
	pool, strategy, err := buildReplacePool(r.g, spec, remaining)
	poolDur := time.Since(poolStart)
	if err != nil {
		poolSpan.SetError(err)
		poolSpan.End()
		return nil, err
	}
	poolSpan.SetAttr(obs.Str("strategy", strategy.String()), obs.Int("candidates", len(pool)))
	poolSpan.End()

	// Step 1: one blocked panel over the candidate batch — candidates are
	// the walk sources, so each cached vector is reusable by any later
	// query that walks from the same node.
	var R [][]float64
	var st StageTimings
	if spec.Exact {
		R, st, err = r.exactStep1(ctx, pool)
	} else {
		R, _, st, err = solveStep1(ctx, r.solver, pool, cfg, r.sv, r.space)
	}
	if err != nil {
		return nil, err
	}
	st.Partition = poolDur

	// Step 2: blend the two kernels and rank.
	_, scoreSpan := obs.StartSpan(ctx, "replace_score")
	scoreStart := time.Now()
	if err := ctx.Err(); err != nil {
		err = fault.FromContext(ctx)
		scoreSpan.SetError(err)
		scoreSpan.End()
		return nil, err
	}
	reps := make([]Replacement, len(pool))
	var maxProx, maxOverlap float64
	for i, c := range pool {
		var prox float64
		for _, m := range remaining {
			prox += R[i][m]
		}
		prox /= float64(len(remaining))
		ov := overlapScore(r.g, spec.Bipartite, c, departing)
		reps[i] = Replacement{Node: c, RWRProximity: prox, Overlap: ov}
		if prox > maxProx {
			maxProx = prox
		}
		if ov > maxOverlap {
			maxOverlap = ov
		}
	}
	for i := range reps {
		var s float64
		if maxProx > 0 {
			s += weights.RWR * (reps[i].RWRProximity / maxProx)
		}
		if maxOverlap > 0 {
			s += weights.Overlap * (reps[i].Overlap / maxOverlap)
		}
		reps[i].Score = s / (weights.RWR + weights.Overlap)
	}
	sort.SliceStable(reps, func(a, b int) bool {
		if reps[a].Score != reps[b].Score {
			return reps[a].Score > reps[b].Score
		}
		return reps[a].Node < reps[b].Node
	})
	topN := spec.TopN
	if topN == 0 {
		topN = 10
	}
	if topN > 0 && len(reps) > topN {
		reps = reps[:topN]
	}
	scoreSpan.SetAttr(obs.Int("ranked", len(reps)))
	scoreSpan.End()
	st.Combine = time.Since(scoreStart)

	return &ReplaceResult{
		Replacements: reps,
		Team:         append([]int(nil), spec.Team...),
		Departing:    departing,
		Remaining:    remaining,
		PoolStrategy: strategy.String(),
		PoolSize:     len(pool),
		Exact:        spec.Exact,
		Stages:       st,
		Elapsed:      time.Since(start),
	}, nil
}

// exactStep1 is ReplaceSubteam's Step 1 for Exact specs: the candidate
// panel read from the dense pre-solved inverse under its own "solve" span.
func (r *Runner) exactStep1(ctx context.Context, pool []int) ([][]float64, StageTimings, error) {
	_, span := obs.StartSpan(ctx, "solve")
	defer span.End()
	span.SetAttr(obs.Str("kernel", "exact"), obs.Int("queries", len(pool)), obs.Int("nodes", r.g.N()))
	start := time.Now()
	R, err := r.exactScoresSet(pool)
	span.SetError(err)
	return R, StageTimings{Solve: time.Since(start), SolveKernel: "exact"}, err
}
