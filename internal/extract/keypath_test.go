package extract

import (
	"math"
	"testing"

	"ceps/internal/graph"
)

// White-box tests of the Table 3 key-path dynamic program.

// newDownhill starts source src's downhill view over score row ri.
func newDownhill(ri []float64, src int) *downhill {
	h := &downhill{}
	h.reset(ri, src)
	return h
}

func TestKeyPathStraightLine(t *testing.T) {
	// 0-1-2-3 with strictly decreasing source scores from node 0: the only
	// downhill path from 0 to 3 is the line itself.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.2, 0.1}
	combined := []float64{0.5, 0.3, 0.2, 0.1}
	inH := []bool{true, false, false, false}

	dp := &pathDP{g: g}
	path, ok := dp.keyPath(newDownhill(ri, 0), combined, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	want := []int{0, 1, 2, 3}
	if len(path) != 4 {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestKeyPathRespectsLengthCap(t *testing.T) {
	// Same line, but only 2 new nodes allowed: 0→1→2→3 needs 3 new nodes,
	// so no path exists.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.2, 0.1}
	combined := ri
	inH := []bool{true, false, false, false}
	dp := &pathDP{g: g}
	h := newDownhill(ri, 0)
	if _, ok := dp.keyPath(h, combined, 3, inH, 2, false); ok {
		t.Fatal("path should be blocked by the new-node cap")
	}
	// With the middle nodes already in H the path costs only 1 new node.
	inH = []bool{true, true, true, false}
	path, ok := dp.keyPath(h, combined, 3, inH, 1, false)
	if !ok {
		t.Fatal("path through existing nodes should fit in cap 1")
	}
	if len(path) != 4 {
		t.Fatalf("unexpected path %v", path)
	}
}

func TestKeyPathPrefersSharedNodes(t *testing.T) {
	// Diamond: 0→1→3 and 0→2→3 are both downhill with equal combined
	// goodness, but node 1 is already in H, so the DP must route through it
	// (its path has s=1 vs s=2, same captured score).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.3, 0.1}
	combined := []float64{0.5, 0.2, 0.2, 0.1}
	inH := []bool{true, true, false, false}
	dp := &pathDP{g: g}
	path, ok := dp.keyPath(newDownhill(ri, 0), combined, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want [0 1 3] through the existing node", path)
	}
}

func TestKeyPathStrictlyDownhill(t *testing.T) {
	// The returned path must strictly descend ri.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(0, 5, 1)
	b.AddEdge(5, 4, 1)
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.4, 0.3, 0.1, 0.05} // node 5 below pd: unusable
	combined := []float64{0.9, 0.5, 0.4, 0.3, 0.1, 0.05}
	inH := []bool{true, false, false, false, false, false}
	dp := &pathDP{g: g}
	path, ok := dp.keyPath(newDownhill(ri, 0), combined, 4, inH, 5, false)
	if !ok {
		t.Fatal("path not found")
	}
	for i := 1; i < len(path); i++ {
		if ri[path[i]] >= ri[path[i-1]] {
			t.Fatalf("path %v is not strictly downhill at step %d", path, i)
		}
	}
	for _, u := range path {
		if u == 5 {
			t.Fatalf("path %v uses node 5, which is below the destination's score", path)
		}
	}
}

func TestKeyPathSourceNotUphill(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	dp := &pathDP{g: g}
	// Source score equals destination score: no strictly downhill path.
	if _, ok := dp.keyPath(newDownhill([]float64{0.5, 0.5}, 0), []float64{1, 1}, 1, []bool{true, false}, 3, false); ok {
		t.Fatal("equal-score source should have no downhill path")
	}
}

func TestKeyPathPicksDenserGoodness(t *testing.T) {
	// Two routes to pd: a direct edge (s=1, captures little) and a detour
	// through a high-goodness node (s=2, captures a lot). The ratio rule
	// C_s/s decides; make the detour twice as good per new node.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 3, 1) // direct
	b.AddEdge(0, 1, 1) // detour start
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1) // unrelated
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.4, 0.1}
	// combined goodness: node 1 is extremely valuable.
	combined := []float64{0.2, 10, 0.1, 0.2}
	inH := []bool{true, false, false, false}
	dp := &pathDP{g: g}
	path, ok := dp.keyPath(newDownhill(ri, 0), combined, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	// direct: (0.2+0.2)/1 = 0.4 ; detour: (0.2+10+0.2)/2 = 5.2 → detour.
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want the high-goodness detour [0 1 3]", path)
	}
}

func TestKeyPathReusableScratch(t *testing.T) {
	// The reused DP buffers and downhill view must not leak state between
	// calls on different candidate sets.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustBuild()
	dp := &pathDP{g: g}
	ri1 := []float64{0.9, 0.5, 0.1, 0, 0}
	h := newDownhill(ri1, 0)
	if _, ok := dp.keyPath(h, ri1, 2, []bool{true, false, false, false, false}, 3, false); !ok {
		t.Fatal("first call failed")
	}
	// Second call in the other component, through the same view reset to
	// a new row; nodes 0–2 must not be candidates.
	ri2 := []float64{0, 0, 0, 0.9, 0.3}
	h.reset(ri2, 3)
	path, ok := dp.keyPath(h, ri2, 4, []bool{false, false, false, true, false}, 3, false)
	if !ok {
		t.Fatal("second call failed")
	}
	for _, u := range path {
		if u <= 2 {
			t.Fatalf("stale candidate leaked into path %v", path)
		}
	}
}

func TestKeyPathRatioHandlesInfinity(t *testing.T) {
	// A node with zero combined score everywhere still yields a valid
	// (zero-ratio) path rather than NaN.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.1}
	combined := []float64{0, 0, 0}
	dp := &pathDP{g: g}
	path, ok := dp.keyPath(newDownhill(ri, 0), combined, 2, []bool{true, false, false}, 3, false)
	if !ok {
		t.Fatal("zero-goodness path should still be found")
	}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	_ = math.Inf // keep math import honest
}
