// Package rwr implements random walk with restart (RWR), the closeness
// primitive of CePS (§4 of the paper).
//
// For a query node q, the score vector r solves
//
//	r = c · W̃ · r + (1 − c) · e_q        (Eq. 4, one column)
//
// where W̃ is the appropriately normalized adjacency matrix and e_q the unit
// query vector. The package offers the paper's three normalizations —
// plain column normalization (Eq. 5), the degree-penalized variant that
// fixes the "pizza delivery person" problem (Eq. 10 followed by Eq. 5), and
// the symmetric "manifold ranking" variant (Eq. 20, Appendix Variant 1) —
// plus both solution strategies: fixed-count power iteration (the paper
// iterates m = 50 times) and the exact dense closed form
// r = (1 − c)(I − c·W̃)⁻¹ e_q (Eq. 12) used for validation and ablation.
package rwr

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/linalg"
	"ceps/internal/obs"
)

// NormKind selects how the weighted adjacency matrix is normalized into the
// random-walk transition matrix.
type NormKind int

const (
	// NormColumn is plain column normalization W̃ = W·D⁻¹ (Eq. 5): the
	// particle moves to a neighbor with probability proportional to edge
	// weight.
	NormColumn NormKind = iota
	// NormDegreePenalized first penalizes every edge of a high-degree node
	// j by d_j^α (Eq. 10) and then column-normalizes (Eq. 5). α = 0
	// degenerates to NormColumn; larger α penalizes hubs harder (§4.3).
	NormDegreePenalized
	// NormSymmetric uses the symmetric S = D^(−1/2)·W·D^(−1/2) of Eq. 20.
	// Scores are symmetric (r_{i,j} = r_{j,i}) but no longer a probability
	// distribution.
	NormSymmetric
)

// String returns a human-readable normalization name.
func (k NormKind) String() string {
	switch k {
	case NormColumn:
		return "column"
	case NormDegreePenalized:
		return "degree-penalized"
	case NormSymmetric:
		return "symmetric"
	default:
		return fmt.Sprintf("NormKind(%d)", int(k))
	}
}

// Config holds the random-walk parameters. The zero value is not useful;
// call DefaultConfig.
type Config struct {
	// C is the continuation coefficient of Eq. 4: at every step the walk
	// continues along an edge with weight c and restarts at the query node
	// with weight 1−c. The paper uses c = 0.5.
	C float64
	// Iterations is the number of power-iteration sweeps m. The paper uses
	// m = 50 ("we do not observe performance improvement with more
	// iteration steps").
	Iterations int
	// Norm selects the adjacency normalization.
	Norm NormKind
	// Alpha is the penalization strength for NormDegreePenalized (§4.3);
	// the paper's default operating point is α = 0.5.
	Alpha float64
	// Tol, when positive, stops the power iteration early once the
	// max-norm update falls below it (the paper fixes m = 50 instead; Tol
	// is the production-friendly alternative). Iterations remains the
	// hard cap.
	Tol float64
}

// DefaultConfig returns the paper's parameter setting (§7): c = 0.5,
// m = 50, degree-penalized normalization with α = 0.5.
func DefaultConfig() Config {
	return Config{C: 0.5, Iterations: 50, Norm: NormDegreePenalized, Alpha: 0.5}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.C <= 0 || c.C >= 1 {
		return fmt.Errorf("rwr: continuation coefficient c = %v must lie in (0,1)", c.C)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("rwr: iteration count m = %d must be positive", c.Iterations)
	}
	if c.Norm == NormDegreePenalized && (c.Alpha < 0 || math.IsNaN(c.Alpha)) {
		return fmt.Errorf("rwr: normalization coefficient α = %v must be non-negative", c.Alpha)
	}
	return nil
}

// Solver computes RWR scores over a fixed graph and configuration. Building
// a Solver materializes the normalized transition matrix once; individual
// queries then reuse it. A Solver is safe for concurrent use (queries only
// read the matrix).
type Solver struct {
	cfg Config
	n   int
	// trans[r][c] is the probability of stepping from node c to node r, so
	// distributions evolve as x ← trans·x. For NormColumn and
	// NormDegreePenalized every column sums to 1 (or 0 for isolated
	// nodes); for NormSymmetric the matrix is the symmetric S of Eq. 20.
	trans *linalg.CSR

	// Solve-buffer pools: every power iteration needs two n-vector (or
	// n×q panel) iterates, and on a serving engine the same solver answers
	// thousands of queries — pooling the scratch keeps steady-state solves
	// allocation-free. Result vectors handed to callers are always fresh
	// clones, never pooled storage.
	vecs   sync.Pool
	panels sync.Pool

	// splits caches the nnz-balanced row partition of trans per worker
	// count (the partition depends only on the matrix, so it is computed
	// once and reused by every intra-sweep parallel multiply).
	splitsMu sync.Mutex
	splits   map[int][]int
}

// NewSolver builds the normalized transition matrix for g under cfg.
func NewSolver(g *graph.Graph, cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	entries := make([]linalg.Triple, 0, 2*g.M())
	switch cfg.Norm {
	case NormColumn, NormDegreePenalized:
		alpha := 0.0
		if cfg.Norm == NormDegreePenalized {
			alpha = cfg.Alpha
		}
		// Penalized weight of arc c→r is w_{rc}/d_r^α (Eq. 10: the
		// receiving node's degree is penalized); each column c is then
		// normalized to sum 1 (Eq. 5).
		for c := 0; c < n; c++ {
			nbrs, ws := g.Neighbors(c)
			var colSum float64
			for i, r := range nbrs {
				colSum += penalize(ws[i], g.WeightedDegree(r), alpha)
			}
			if colSum == 0 {
				continue // isolated node: zero column, walk mass restarts only
			}
			for i, r := range nbrs {
				p := penalize(ws[i], g.WeightedDegree(r), alpha) / colSum
				entries = append(entries, linalg.Triple{Row: r, Col: c, Val: p})
			}
		}
	case NormSymmetric:
		for c := 0; c < n; c++ {
			dc := g.WeightedDegree(c)
			if dc == 0 {
				continue
			}
			nbrs, ws := g.Neighbors(c)
			for i, r := range nbrs {
				dr := g.WeightedDegree(r)
				entries = append(entries, linalg.Triple{Row: r, Col: c, Val: ws[i] / math.Sqrt(dr*dc)})
			}
		}
	default:
		return nil, fmt.Errorf("rwr: unknown normalization %v", cfg.Norm)
	}
	trans, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		return nil, err
	}
	return &Solver{cfg: cfg, n: n, trans: trans, splits: make(map[int][]int)}, nil
}

func penalize(w, deg, alpha float64) float64 {
	if alpha == 0 || deg == 0 {
		return w
	}
	return w / math.Pow(deg, alpha)
}

// N returns the number of nodes the solver operates on.
func (s *Solver) N() int { return s.n }

// Config returns the solver's configuration.
func (s *Solver) Config() Config { return s.cfg }

// TransitionProb returns W̃ entry for the step from→to, i.e. the probability
// that a particle at `from` moves to `to` in one step. Used by the edge
// goodness score (Eq. 15).
func (s *Solver) TransitionProb(from, to int) float64 {
	return s.trans.At(to, from)
}

// Diagnostics reports how one random-walk solve went: the convergence
// verdict that replaces the old silent truncation at m sweeps.
type Diagnostics struct {
	// Sweeps is the number of power-iteration sweeps actually run.
	Sweeps int
	// Residual is the max-norm update of the final sweep.
	Residual float64
	// Converged reports whether the final residual fell below the
	// effective tolerance (cfg.Tol when set, else a loose default): the
	// scores are a fixed point of Eq. 4, not a truncation artifact.
	Converged bool
}

// defaultConvergedTol classifies fixed-m runs (Tol = 0): with c = 0.5 the
// update shrinks ~2× per sweep, so the paper's m = 50 lands far below this
// while genuinely truncated runs sit above it.
const defaultConvergedTol = 1e-9

// Scores returns the RWR score vector r(q, ·) for a single query node,
// computed with up to cfg.Iterations power-iteration sweeps of Eq. 4
// (fewer when cfg.Tol is set and convergence arrives early).
func (s *Solver) Scores(q int) ([]float64, error) {
	r, _, err := s.ScoresCtx(context.Background(), q)
	return r, err
}

// ScoresWithStats is Scores plus the number of sweeps actually run — the
// observable for the early-stopping ablation.
func (s *Solver) ScoresWithStats(q int) ([]float64, int, error) {
	r, diag, err := s.ScoresCtx(context.Background(), q)
	return r, diag.Sweeps, err
}

// ScoresCtx computes r(q, ·) with cooperative cancellation and numerical
// fault detection: ctx is checked at every sweep boundary (so a deadline
// aborts within one sweep's work), NaN/Inf score vectors abort with
// fault.ErrDiverged, and the returned Diagnostics carry the sweep count,
// final residual, and convergence verdict.
func (s *Solver) ScoresCtx(ctx context.Context, q int) ([]float64, Diagnostics, error) {
	var diag Diagnostics
	if q < 0 || q >= s.n {
		return nil, diag, fmt.Errorf("%w: query node %d out of range [0,%d)", fault.ErrBadQuery, q, s.n)
	}
	// Both iterates come from the solve-buffer pool; every exit path hands
	// the caller a clone so pooled storage never escapes.
	rbuf, nbuf := s.getVec(), s.getVec()
	defer s.putVec(rbuf)
	defer s.putVec(nbuf)
	r, next := *rbuf, *nbuf
	linalg.Fill(r, 0)
	r[q] = 1
	// Chaos hooks: one atomic load when unarmed. The NaN arm poisons the
	// start vector so the in-loop non-finite guard must catch it — proving
	// a numerical fault surfaces as ErrDiverged, never as silent garbage.
	if inj := fault.ActiveInjector(); inj != nil {
		if err := inj.Delay(ctx, fault.InjectSolveDelay); err != nil {
			return nil, diag, err
		}
		if err := inj.Err(fault.InjectSolveError); err != nil {
			return nil, diag, err
		}
		if inj.Fire(fault.InjectSolveNaN) {
			r[q] = math.NaN()
		}
	}
	restart := 1 - s.cfg.C
	tol := s.cfg.Tol
	if tol <= 0 {
		tol = defaultConvergedTol
	}
	// Sweep events are gated on Recording so the untraced hot loop never
	// builds attribute slices; a nil span makes the gate one pointer check.
	span := obs.SpanFromContext(ctx)
	var first float64
	for it := 0; it < s.cfg.Iterations; it++ {
		if err := fault.FromContext(ctx); err != nil {
			return linalg.Clone(r), diag, err
		}
		s.trans.MulVecTo(next, r)
		linalg.Scale(s.cfg.C, next)
		next[q] += restart
		diag.Sweeps = it + 1
		diag.Residual = linalg.MaxDiff(next, r)
		if span.Recording() {
			span.AddEvent("sweep", obs.Str("kernel", "scalar"), obs.Int("source", q),
				obs.Int("sweep", diag.Sweeps), obs.F64("residual", diag.Residual),
				obs.Int("advanced", 1))
		}
		r, next = next, r
		if math.IsNaN(diag.Residual) || math.IsInf(diag.Residual, 0) || linalg.HasNonFinite(r) {
			return linalg.Clone(r), diag, fmt.Errorf("%w: non-finite scores after sweep %d of walk from node %d", fault.ErrDiverged, diag.Sweeps, q)
		}
		if it == 0 {
			first = diag.Residual
		} else if first > 0 && diag.Residual > 1e8*first && diag.Residual > 1 {
			return linalg.Clone(r), diag, fmt.Errorf("%w: walk from node %d: residual grew from %g to %g", fault.ErrDiverged, q, first, diag.Residual)
		}
		// Early stop only when the caller opted in via Tol; Tol = 0 keeps
		// the paper's fixed-m semantics (all m sweeps run) and the default
		// tolerance is used only for the Converged verdict.
		if s.cfg.Tol > 0 && diag.Residual < s.cfg.Tol {
			break
		}
	}
	diag.Converged = diag.Residual < tol
	return linalg.Clone(r), diag, nil
}

// ScoresSet returns the matrix R of individual scores for a query set: one
// row per query, R[i][j] = r(q_i, j).
func (s *Solver) ScoresSet(queries []int) ([][]float64, error) {
	R, _, err := s.ScoresSetCtx(context.Background(), queries)
	return R, err
}

// ScoresSetCtx is ScoresSet with cancellation and per-query Diagnostics
// (same order as queries). All query indices are validated up front, so a
// bad ID anywhere in the set fails fast with fault.ErrBadQuery instead of
// discarding the solves that preceded it.
func (s *Solver) ScoresSetCtx(ctx context.Context, queries []int) ([][]float64, []Diagnostics, error) {
	if err := s.checkSources(queries); err != nil {
		return nil, nil, err
	}
	R := make([][]float64, len(queries))
	diags := make([]Diagnostics, len(queries))
	for i, q := range queries {
		r, d, err := s.ScoresCtx(ctx, q)
		if err != nil {
			return nil, nil, err
		}
		R[i] = r
		diags[i] = d
	}
	return R, diags, nil
}

// checkSources validates a query set up front — non-empty, every id in
// range — so a bad id anywhere fails fast with fault.ErrBadQuery before
// any solve starts or any cache flight is registered.
func (s *Solver) checkSources(queries []int) error {
	if len(queries) == 0 {
		return fmt.Errorf("%w: empty query set", fault.ErrBadQuery)
	}
	for _, q := range queries {
		if q < 0 || q >= s.n {
			return fmt.Errorf("%w: query node %d out of range [0,%d)", fault.ErrBadQuery, q, s.n)
		}
	}
	return nil
}

// ExactScores solves Eq. 12 — r = (1−c)(I − c·W̃)⁻¹ e_q — with a dense LU
// factorization. It is O(n³) and intended for validation and ablation on
// small graphs; it returns an error for n > maxExactN to keep callers from
// accidentally cubing the DBLP graph.
func (s *Solver) ExactScores(q int) ([]float64, error) {
	const maxExactN = 4000
	if s.n > maxExactN {
		return nil, fmt.Errorf("rwr: exact solve of n = %d exceeds the %d-node dense limit", s.n, maxExactN)
	}
	if q < 0 || q >= s.n {
		return nil, fmt.Errorf("rwr: query node %d out of range [0,%d)", q, s.n)
	}
	a := linalg.NewDense(s.n, s.n)
	for r := 0; r < s.n; r++ {
		cols, vals := s.trans.Row(r)
		for i, c := range cols {
			a.Set(r, c, -s.cfg.C*vals[i])
		}
		a.Add(r, r, 1)
	}
	f, err := a.Factorize()
	if err != nil {
		return nil, fmt.Errorf("rwr: closed-form system singular: %w", err)
	}
	b := linalg.Unit(s.n, q)
	linalg.Scale(1-s.cfg.C, b)
	return f.Solve(b), nil
}
