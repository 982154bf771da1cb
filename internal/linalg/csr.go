package linalg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// CSR is a sparse matrix in compressed-sparse-row form. Rows index the
// output of MulVec; the matrix need not be square or symmetric.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Triple is a coordinate-form matrix entry.
type Triple struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from coordinate triples. Duplicate
// coordinates are summed. Zero values are kept (callers may rely on
// explicit zeros); out-of-range coordinates are an error.
func NewCSR(rows, cols int, entries []Triple) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: invalid CSR shape %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	// Bucket the entries by row (a counting sort, stable), then order each
	// row by column; rows arriving column-ordered, as a graph's
	// normalization emits them, need no sort at all. Duplicates are summed
	// in input order.
	start := make([]int, rows+1)
	for _, e := range entries {
		start[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		start[r+1] += start[r]
	}
	sorted := make([]Triple, len(entries))
	next := append([]int(nil), start[:rows]...)
	for _, e := range entries {
		sorted[next[e.Row]] = e
		next[e.Row]++
	}
	byCol := func(a, b Triple) int { return cmp.Compare(a.Col, b.Col) }
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	m.colIdx = make([]int, 0, len(entries))
	m.vals = make([]float64, 0, len(entries))
	for r := 0; r < rows; r++ {
		row := sorted[start[r]:start[r+1]]
		if !slices.IsSortedFunc(row, byCol) {
			slices.SortStableFunc(row, byCol)
		}
		for i := 0; i < len(row); {
			j := i
			val := 0.0
			for j < len(row) && row[j].Col == row[i].Col {
				val += row[j].Val
				j++
			}
			m.colIdx = append(m.colIdx, row[i].Col)
			m.vals = append(m.vals, val)
			i = j
		}
		m.rowPtr[r+1] = len(m.vals)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// Row returns the column indices and values of row r as views into the
// matrix storage.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// At returns the (r, c) entry, 0 if absent. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case m.colIdx[mid] == c:
			return m.vals[mid]
		case m.colIdx[mid] < c:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// MulVec computes y = M x, allocating y. len(x) must equal Cols.
func (m *CSR) MulVec(x []float64) []float64 {
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M x into a caller-provided y of length Rows.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: M %dx%d, x %d, y %d", m.rows, m.cols, len(x), len(y)))
	}
	m.mulVecRange(y, x, 0, m.rows)
}

// mulVecRange computes y[lo:hi] = (M x)[lo:hi]. Rows outside [lo, hi) are
// untouched, so disjoint ranges can run concurrently into the same y.
func (m *CSR) mulVecRange(y, x []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		var s float64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s += m.vals[i] * x[m.colIdx[i]]
		}
		y[r] = s
	}
}

// MulMatTo computes Y = M X for row-major panels: each CSR traversal
// applies every matrix nonzero to a register-blocked group of up to eight
// right-hand-side columns, so a q-column product streams the matrix
// ~ceil(q/8) times instead of q times and keeps every partial sum in a
// register. Per column the accumulation runs in the same operation order
// as MulVecTo (start from zero, add vals[i]·x[colIdx[i]] in nonzero
// order), so column j of the result is bit-identical to MulVecTo over
// column j.
func (m *CSR) MulMatTo(dst, src *Panel) {
	if src.rows != m.cols || dst.rows != m.rows || src.cols != dst.cols {
		panic(fmt.Sprintf("linalg: MulMat shape mismatch: M %dx%d, src %dx%d, dst %dx%d",
			m.rows, m.cols, src.rows, src.cols, dst.rows, dst.cols))
	}
	m.mulMatRange(dst, src, 0, m.rows)
}

// mulMatRange computes rows [lo, hi) of dst = M·src; other rows are
// untouched, so disjoint ranges can run concurrently into the same dst.
// Column groups of eight (then four/two/one for the tail) each walk the
// nonzeros once, accumulating in registers; an accumulator that
// round-trips through the destination panel per nonzero would forfeit the
// fusion win. The width-specific kernels hoist the CSR arrays into locals
// and slice the panel row with a constant length so the compiler can prove
// the inner accesses in bounds.
func (m *CSR) mulMatRange(dst, src *Panel, lo, hi int) {
	q := dst.cols
	jj := 0
	for ; jj+8 <= q; jj += 8 {
		m.mulMat8(dst, src, lo, hi, jj)
	}
	if q-jj >= 4 {
		m.mulMat4(dst, src, lo, hi, jj)
		jj += 4
	}
	if q-jj >= 2 {
		m.mulMat2(dst, src, lo, hi, jj)
		jj += 2
	}
	if jj < q {
		m.mulMat1(dst, src, lo, hi, jj)
	}
}

// mulMat8 computes columns [jj, jj+8) of dst = M·src over rows [lo, hi).
func (m *CSR) mulMat8(dst, src *Panel, lo, hi, jj int) {
	q := dst.cols
	vals, colIdx, rowPtr := m.vals, m.colIdx, m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			s := sdata[b : b+8 : b+8]
			a0 += v * s[0]
			a1 += v * s[1]
			a2 += v * s[2]
			a3 += v * s[3]
			a4 += v * s[4]
			a5 += v * s[5]
			a6 += v * s[6]
			a7 += v * s[7]
		}
		b := r*q + jj
		d := ddata[b : b+8 : b+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// mulMat4 computes columns [jj, jj+4) of dst = M·src over rows [lo, hi).
func (m *CSR) mulMat4(dst, src *Panel, lo, hi, jj int) {
	q := dst.cols
	vals, colIdx, rowPtr := m.vals, m.colIdx, m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1, a2, a3 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			s := sdata[b : b+4 : b+4]
			a0 += v * s[0]
			a1 += v * s[1]
			a2 += v * s[2]
			a3 += v * s[3]
		}
		b := r*q + jj
		d := ddata[b : b+4 : b+4]
		d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	}
}

// mulMat2 computes columns [jj, jj+2) of dst = M·src over rows [lo, hi).
func (m *CSR) mulMat2(dst, src *Panel, lo, hi, jj int) {
	q := dst.cols
	vals, colIdx, rowPtr := m.vals, m.colIdx, m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a0, a1 float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			v := vals[i]
			b := colIdx[i]*q + jj
			s := sdata[b : b+2 : b+2]
			a0 += v * s[0]
			a1 += v * s[1]
		}
		b := r*q + jj
		d := ddata[b : b+2 : b+2]
		d[0], d[1] = a0, a1
	}
}

// mulMat1 computes column jj of dst = M·src over rows [lo, hi); this tail
// kernel is MulVecTo with strided panel access.
func (m *CSR) mulMat1(dst, src *Panel, lo, hi, jj int) {
	q := dst.cols
	vals, colIdx, rowPtr := m.vals, m.colIdx, m.rowPtr
	sdata, ddata := src.data, dst.data
	for r := lo; r < hi; r++ {
		var a float64
		end := rowPtr[r+1]
		for i := rowPtr[r]; i < end; i++ {
			a += vals[i] * sdata[colIdx[i]*q+jj]
		}
		ddata[r*q+jj] = a
	}
}

// NNZSplits partitions the rows into up to `workers` contiguous ranges of
// approximately equal nonzero count and returns the range boundaries
// (length workers+1, bounds[0] = 0, bounds[workers] = Rows). Balancing by
// nonzeros rather than rows keeps hub-heavy ranges from serializing a
// parallel sweep on skewed graphs. The split points are found by binary
// search over the cumulative row pointer, so callers precompute them once
// per (matrix, worker count) and reuse them every sweep with ParMulVecTo /
// ParMulMatTo at zero per-sweep cost.
func (m *CSR) NNZSplits(workers int) []int {
	if workers < 1 {
		workers = 1
	}
	if workers > m.rows {
		workers = m.rows
	}
	bounds := make([]int, workers+1)
	bounds[workers] = m.rows
	nnz := len(m.vals)
	for k := 1; k < workers; k++ {
		target := nnz * k / workers
		r := sort.SearchInts(m.rowPtr, target)
		if r > m.rows {
			r = m.rows
		}
		if r < bounds[k-1] {
			r = bounds[k-1]
		}
		bounds[k] = r
	}
	return bounds
}

// ParMulVecTo is MulVecTo with the row ranges of splits (from NNZSplits)
// computed on concurrent goroutines. Ranges write disjoint rows and every
// row is computed exactly as in the serial kernel, so the result is
// bit-identical to MulVecTo for every split. nil splits — or splits
// describing a single range — run serially.
func (m *CSR) ParMulVecTo(y, x []float64, splits []int) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: M %dx%d, x %d, y %d", m.rows, m.cols, len(x), len(y)))
	}
	if len(splits) <= 2 {
		m.mulVecRange(y, x, 0, m.rows)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k+1 < len(splits); k++ {
		lo, hi := splits[k], splits[k+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulVecRange(y, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParMulMatTo is MulMatTo with the row ranges of splits (from NNZSplits)
// computed on concurrent goroutines; bit-identical to MulMatTo for every
// split, by the same disjoint-rows argument as ParMulVecTo.
func (m *CSR) ParMulMatTo(dst, src *Panel, splits []int) {
	if src.rows != m.cols || dst.rows != m.rows || src.cols != dst.cols {
		panic(fmt.Sprintf("linalg: MulMat shape mismatch: M %dx%d, src %dx%d, dst %dx%d",
			m.rows, m.cols, src.rows, src.cols, dst.rows, dst.cols))
	}
	if len(splits) <= 2 {
		m.mulMatRange(dst, src, 0, m.rows)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k+1 < len(splits); k++ {
		lo, hi := splits[k], splits[k+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulMatRange(dst, src, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulVecTransTo computes y = Mᵀ x into y of length Cols (x of length Rows).
func (m *CSR) MulVecTransTo(y, x []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic(fmt.Sprintf("linalg: MulVecTrans shape mismatch: M %dx%d, x %d, y %d", m.rows, m.cols, len(x), len(y)))
	}
	Fill(y, 0)
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			y[m.colIdx[i]] += m.vals[i] * xr
		}
	}
}

// Transpose returns Mᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{rows: m.cols, cols: m.rows, rowPtr: make([]int, m.cols+1)}
	t.colIdx = make([]int, len(m.colIdx))
	t.vals = make([]float64, len(m.vals))
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	fill := make([]int, t.rows)
	copy(fill, t.rowPtr[:t.rows])
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			t.colIdx[fill[c]] = r
			t.vals[fill[c]] = m.vals[i]
			fill[c]++
		}
	}
	return t
}

// ColumnSums returns the vector of column sums, used to verify stochastic
// normalization in tests.
func (m *CSR) ColumnSums() []float64 {
	s := make([]float64, m.cols)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s[m.colIdx[i]] += m.vals[i]
		}
	}
	return s
}

// Dense expands the matrix to a dense representation (tests only).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d.Set(r, m.colIdx[i], m.vals[i])
		}
	}
	return d
}
