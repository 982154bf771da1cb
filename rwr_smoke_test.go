package ceps_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"ceps"
	"ceps/internal/experiments"
)

// rwrKernelReport is the JSON shape `make bench-rwr` writes to
// BENCH_rwr.json: the Step-1 kernel grid (blocked multi-source RWR vs
// per-query scalar solves) plus the Q=8 acceptance headline.
type rwrKernelReport struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Iterations is the power-iteration count m every solve runs.
	Iterations int `json:"rwrIterations"`
	// Reps is how many cold runs each cell takes the best of.
	Reps   int                       `json:"reps"`
	Points []experiments.KernelPoint `json:"points"`
	// Q8Speedup is the best blocked-vs-scalar speedup at Q = 8 across
	// worker counts — the acceptance headline (floor: 2x).
	Q8Speedup float64 `json:"q8Speedup"`
}

// TestRWRKernelSmoke sweeps the Step-1 kernel grid (Q x workers, blocked vs
// scalar) and, when BENCH_RWR_OUT names a file, writes the grid there as
// JSON (this is what `make bench-rwr` runs; `make check` runs it with
// RWR_KERNEL_REPS=2 as a quick smoke). It always enforces the acceptance
// floor: one blocked Q=8 solve must beat 8 sequential scalar solves, with a
// 2x target at the best worker count. Bit-identity of the two kernels is
// asserted inside experiments.Kernel before anything is timed.
func TestRWRKernelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	reps := 4
	if env := os.Getenv("RWR_KERNEL_REPS"); env != "" {
		reps, err = strconv.Atoi(env)
		if err != nil {
			t.Fatalf("RWR_KERNEL_REPS=%q: %v", env, err)
		}
	}

	pts, err := experiments.Kernel(s, []int{1, 4, 8, 16}, []int{1, 4, 8}, reps)
	if err != nil {
		t.Fatal(err)
	}
	rep := rwrKernelReport{
		Nodes:      s.Dataset.Graph.N(),
		Edges:      s.Dataset.Graph.M(),
		Iterations: s.Base.RWR.Iterations,
		Reps:       reps,
		Points:     pts,
	}
	for _, p := range pts {
		if p.Q == 8 && p.Speedup > rep.Q8Speedup {
			rep.Q8Speedup = p.Speedup
		}
	}
	var sb strings.Builder
	experiments.RenderKernel(&sb, pts)
	t.Logf("kernel sweep (reps=%d):\n%s", reps, sb.String())

	if rep.Q8Speedup <= 1 {
		t.Errorf("blocked Q=8 solve is not faster than 8 scalar solves (best speedup %.2fx)", rep.Q8Speedup)
	} else if rep.Q8Speedup < 2 {
		t.Errorf("blocked Q=8 best speedup %.2fx, want >= 2x", rep.Q8Speedup)
	}

	if out := os.Getenv("BENCH_RWR_OUT"); out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineBlockedSolvesBitIdenticalAndMetered pins the engine-level
// contract of the one Step 1 resolver: every solve is a blocked panel whose
// score vectors are Float64bits-identical to the per-source reference
// (ScoresSetCtx) with the same sweep count, the kernel is reported in
// Stages.SolveKernel, and the solve is metered into the
// ceps_solves_total{kernel="blocked"} and ceps_solve_rows_total series —
// with no scalar series left in the exposition.
func TestEngineBlockedSolvesBitIdenticalAndMetered(t *testing.T) {
	ds := smallDataset(t)
	queries := []int{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[2][0]}

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	res, err := eng.Query(queries...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.SolveKernel != "blocked" {
		t.Errorf("SolveKernel = %q, want blocked", res.Stages.SolveKernel)
	}
	want, diags, err := res.Solver.ScoresSetCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := 0
	for _, d := range diags {
		sweeps += d.Sweeps
	}
	if sweeps <= 0 || res.Stages.SolveSweeps != sweeps {
		t.Errorf("SolveSweeps = %d, reference solves swept %d (want equal and positive)", res.Stages.SolveSweeps, sweeps)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(res.R[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("score R[%d][%d] differs from the reference solve: %v vs %v", i, j, res.R[i][j], want[i][j])
			}
		}
	}

	text := scrape(t, eng)
	if !strings.Contains(text, `ceps_solves_total{kernel="blocked"} 1`) {
		t.Errorf("exposition missing ceps_solves_total{kernel=\"blocked\"} 1\n%s", text)
	}
	if strings.Contains(text, `kernel="scalar"`) {
		t.Errorf("exposition still carries a scalar kernel series\n%s", text)
	}
	if !strings.Contains(text, "ceps_solve_rows_total") || !strings.Contains(text, "ceps_solve_rows_per_second") {
		t.Errorf("exposition missing solve throughput series\n%s", text)
	}
}
