package rwr

import (
	"context"
	"testing"
)

func BenchmarkNewSolver(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSolver(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoresM50(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Scores(i % g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoresSetSequentialVsBlocked(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	queries := []int{1, 100, 500, 1000, 2500, 4000}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.ScoresSet(queries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.ScoresSetBlockedCtx(context.Background(), queries, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNormalizationVariants(b *testing.B) {
	g := randomGraph(b, 3000, 12000, 1)
	for _, norm := range []NormKind{NormColumn, NormDegreePenalized, NormSymmetric} {
		b.Run(norm.String(), func(b *testing.B) {
			s, err := NewSolver(g, Config{C: 0.5, Iterations: 50, Norm: norm, Alpha: 0.5})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Scores(i % g.N()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSkewness(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r, err := s.Scores(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Skewness(r, []float64{0.01, 0.1})
	}
}
