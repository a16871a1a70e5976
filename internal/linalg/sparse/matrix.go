// Package sparse provides a compressed sparse matrix and a KLU-style LU
// factorization, each one generic implementation instantiated for float64
// and complex128. The factorization is split into a symbolic analysis —
// fill-reducing ordering plus pattern factorization, computed once per
// sparsity pattern — and a numeric refactorization that reuses the pattern
// (and pivot sequence) on every subsequent solve. Solves write into caller
// buffers; after the first full factorization the refactor/solve cycle
// performs no heap allocations.
//
// The package exists for the circuit simulator's modified-nodal-analysis
// systems: their sparsity pattern is fixed at netlist compile time while
// the numeric values change every Newton iteration, timestep, and frequency
// point — exactly the workload the symbolic/numeric split is designed for.
package sparse

import "errors"

// ErrSingular is returned when a factorization meets a structurally or
// numerically singular matrix.
var ErrSingular = errors.New("sparse: singular matrix")

// ErrPivot is returned by Refactor when a frozen pivot has become too small
// relative to its column; the caller should fall back to a full Factor,
// which re-selects pivots.
var ErrPivot = errors.New("sparse: pivot degenerated, refactorization refused")

// Scalar is the set of value types the kernel is instantiated for.
type Scalar interface{ float64 | complex128 }

// MatrixOf is a compressed-sparse matrix with a fixed pattern. Entries
// are stored column-major (compressed sparse column): column j occupies
// Val[ColPtr[j]:ColPtr[j+1]], with Row holding the matching row indices in
// ascending order. The column orientation is what the left-looking LU
// wants; a Builder constructs the pattern and hands out flat slot indices
// into Val so clients can re-stamp values without any index arithmetic.
type MatrixOf[T Scalar] struct {
	N      int
	ColPtr []int32
	Row    []int32
	Val    []T
}

// Matrix is the real matrix (DC, transient); CMatrix the complex one (the
// AC small-signal solver).
type (
	Matrix  = MatrixOf[float64]
	CMatrix = MatrixOf[complex128]
)

// Zero clears every stored value, keeping the pattern.
func (m *MatrixOf[T]) Zero() {
	for i := range m.Val {
		m.Val[i] = 0
	}
}

// NNZ returns the number of stored entries.
func (m *MatrixOf[T]) NNZ() int { return len(m.Val) }

// MulVec computes y = A·x into the caller's buffer (len N each).
func (m *MatrixOf[T]) MulVec(x, y []T) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			y[m.Row[p]] += m.Val[p] * xj
		}
	}
}

// Builder accumulates a sparsity pattern and assigns each distinct (row,
// col) coordinate a provisional slot id. Build finalizes the compressed
// layout and returns the remap from provisional slots to positions in Val,
// so recorded stamp plans survive the sort into compressed order. The
// Builder's map only lives during pattern construction — steady-state
// stamping is pure indexed writes.
type Builder struct {
	n     int
	index map[uint64]int32
	rows  []int32
	cols  []int32
}

// NewBuilder starts an empty n×n pattern.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, index: make(map[uint64]int32)}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Len returns the number of distinct coordinates registered so far.
func (b *Builder) Len() int { return len(b.rows) }

// Slot registers coordinate (i, j) and returns its provisional slot id.
// Registering the same coordinate again returns the same id.
func (b *Builder) Slot(i, j int) int32 {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic("sparse: coordinate out of range")
	}
	key := uint64(i)<<32 | uint64(uint32(j))
	if s, ok := b.index[key]; ok {
		return s
	}
	s := int32(len(b.rows))
	b.index[key] = s
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	return s
}

// compress produces the CSC layout arrays shared by both value types.
func (b *Builder) compress() (colPtr, row, remap []int32) {
	nnz := len(b.rows)
	colPtr = make([]int32, b.n+1)
	for _, c := range b.cols {
		colPtr[c+1]++
	}
	for j := 0; j < b.n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	row = make([]int32, nnz)
	remap = make([]int32, nnz)
	next := make([]int32, b.n)
	copy(next, colPtr[:b.n])
	// Within each column, place entries in ascending row order: provisional
	// slots were handed out in stamp order, so sort per column. Counting
	// sort over rows keeps this O(nnz + n); with the tiny matrices here a
	// simple insertion pass per column is plenty and keeps the code direct.
	type ent struct{ row, slot int32 }
	perCol := make([][]ent, b.n)
	for s := range b.rows {
		c := b.cols[s]
		perCol[c] = append(perCol[c], ent{b.rows[s], int32(s)})
	}
	for j := 0; j < b.n; j++ {
		es := perCol[j]
		for i := 1; i < len(es); i++ {
			e := es[i]
			k := i - 1
			for k >= 0 && es[k].row > e.row {
				es[k+1] = es[k]
				k--
			}
			es[k+1] = e
		}
		for _, e := range es {
			p := next[j]
			row[p] = e.row
			remap[e.slot] = p
			next[j]++
		}
	}
	return colPtr, row, remap
}

func build[T Scalar](b *Builder) (*MatrixOf[T], []int32) {
	colPtr, row, remap := b.compress()
	return &MatrixOf[T]{N: b.n, ColPtr: colPtr, Row: row, Val: make([]T, len(row))}, remap
}

// BuildReal finalizes the pattern into a real matrix. remap translates the
// provisional slot ids returned by Slot into indices of Matrix.Val.
func (b *Builder) BuildReal() (m *Matrix, remap []int32) { return build[float64](b) }

// BuildComplex finalizes the pattern into a complex matrix.
func (b *Builder) BuildComplex() (m *CMatrix, remap []int32) { return build[complex128](b) }
