// Package core wires the CePS pipeline together (Table 1 of the paper):
// individual score calculation (random walk with restart), score
// combination (AND / OR / K_softAND), and the EXTRACT connection-subgraph
// algorithm — plus the Fast CePS variant (Table 5) that pre-partitions the
// graph and answers queries on the partitions containing the query nodes,
// and the evaluation metrics NRatio, ERatio and RelRatio (Eqs. 13, 14, 19).
package core

import (
	"fmt"

	"ceps/internal/fault"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// Config collects every knob of the CePS pipeline. DefaultConfig matches
// the paper's §7 parameter setting.
type Config struct {
	// RWR configures the random walk: continuation coefficient c,
	// iteration count m, and adjacency normalization (§4.1, §4.3).
	RWR rwr.Config

	// K is the K_softAND coefficient (§4.2): a node scores high iff at
	// least K of the Q walk particles meet there. K = 0 (the default)
	// means an AND query (K = Q); K = 1 is an OR query; values above Q
	// clamp to Q. K also sets the number of active sources in EXTRACT
	// (§5, footnote 2).
	K int

	// OrderStat switches the combination to Appendix A Variant 2: the
	// K-th largest individual score instead of the meeting probability.
	OrderStat bool

	// Budget b is the maximum number of non-query nodes in the output
	// subgraph (Problem 1).
	Budget int

	// MaxPathLen caps new nodes per key path; 0 means the paper's
	// ceil(Budget / K) (§7 "Parameter Setting").
	MaxPathLen int

	// Workers sets how many goroutines the Step 1 panel solve may use: the
	// blocked kernel partitions each fused sweep's rows across them. 0 or 1
	// is serial, > 1 uses that many row workers, negative uses GOMAXPROCS.
	// The score vectors are bit-identical for every setting.
	Workers int

	// NoCoalesce opts this query out of the engine's cross-request solve
	// coalescer (when one is attached): its cache misses solve directly
	// instead of joining a shared panel. Coalescing never changes answers
	// (panel solves are bit-identical), so like Workers this is a pure
	// scheduling knob and never part of a cache key.
	NoCoalesce bool
}

// DefaultConfig returns the paper's operating point: c = 0.5, m = 50,
// degree-penalized normalization with α = 0.5, AND query, budget 20.
func DefaultConfig() Config {
	return Config{RWR: rwr.DefaultConfig(), K: 0, Budget: 20}
}

// Validate checks the configuration. Rejections wrap fault.ErrBadConfig.
func (c Config) Validate() error {
	if err := c.RWR.Validate(); err != nil {
		return fmt.Errorf("%w: %w", fault.ErrBadConfig, err)
	}
	if c.Budget <= 0 {
		return fmt.Errorf("%w: budget %d must be positive", fault.ErrBadConfig, c.Budget)
	}
	if c.K < 0 {
		return fmt.Errorf("%w: K_softAND coefficient %d must be non-negative (0 = AND)", fault.ErrBadConfig, c.K)
	}
	if c.MaxPathLen < 0 {
		return fmt.Errorf("%w: max path length %d must be non-negative", fault.ErrBadConfig, c.MaxPathLen)
	}
	return nil
}

// EffectiveK resolves the K_softAND coefficient for a query set of size q:
// 0 (AND) becomes q, and values above q clamp to q.
func (c Config) EffectiveK(q int) int {
	k := c.K
	if k <= 0 || k > q {
		k = q
	}
	return k
}

// Combiner returns the score.Combiner implementing the configured query
// type for q queries.
func (c Config) Combiner(q int) score.Combiner {
	k := c.EffectiveK(q)
	if c.OrderStat {
		switch {
		case k == q:
			return score.MinOrderStat{}
		case k == 1:
			return score.MaxOrderStat{}
		default:
			return score.KthOrderStat{K: k}
		}
	}
	switch {
	case k == q:
		return score.AND{}
	case k == 1:
		return score.OR{}
	default:
		return score.KSoftAND{K: k}
	}
}

// QueryTypeName names the configured query type for a query set of size q,
// e.g. "AND", "OR", "2_softAND".
func (c Config) QueryTypeName(q int) string {
	return c.Combiner(q).String()
}
