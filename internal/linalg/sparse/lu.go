package sparse

import (
	"math"
	"math/cmplx"
)

// pivTol is the refactorization stability threshold: a frozen pivot whose
// magnitude falls below pivTol × (largest candidate in its column) triggers
// ErrPivot and a full re-pivoting Factor, mirroring KLU's refactor guard.
const pivTol = 1e-3

// LUOf is a sparse LU factorization P·A·Q = L·U with partial (row) pivoting
// and a fill-reducing column pre-ordering Q. The first Factor performs the
// symbolic analysis — ordering, reachability, fill pattern — and records
// the pivot sequence; Refactor replays the numeric elimination on the
// frozen pattern with zero allocations. L is unit lower triangular (unit
// diagonal implicit, row ids in original coordinates); U is strictly upper
// triangular by pivot-step ids with the diagonal held separately.
//
// The factorization is one implementation over both scalar types: the
// only lines that depend on T are the two magnitudes pivotMag and guardMag.
type LUOf[T Scalar] struct {
	n     int
	q     []int32 // column order: step t eliminates original column q[t]
	pinv  []int32 // original row -> pivot step (-1 while unpivoted)
	prow  []int32 // pivot step -> original row
	lp    []int32 // L column pointers (len n+1)
	li    []int32 // L row indices (original coordinates)
	lx    []T
	up    []int32 // U column pointers (len n+1)
	ui    []int32 // U row ids (pivot steps, in elimination replay order)
	ux    []T
	udiag []T
	udinv []T // 1/udiag, refreshed by Factor and Refactor
	// Derived index arrays rebuilt after each Factor (pattern and pivots
	// are frozen across Refactor): liPerm maps L row indices to pivot
	// steps for the forward solve, uprow maps U entries to the original
	// row their value is scattered at during refactorization.
	liPerm []int32
	uprow  []int32

	// workspaces (sized n, reused across Factor/Refactor/Solve)
	w      []T
	flag   []int32
	stack  []int32
	pstack []int32
	xi     []int32
	z      []T
	stamp  int32
	valid  bool
	qinv   []int32 // original column -> elimination step
	// NoOrder disables the fill-reducing pre-ordering (natural column
	// order); set before the first Factor. Useful for comparisons and for
	// matching a dense reference factorization's pivot walk.
	NoOrder bool
	// orderLast lists columns forced to the end of the elimination order
	// (min-degree within each group). Callers place the columns whose
	// values change most often there, so RefactorFrom redoes only a short
	// suffix. Set via PreferLast before the first Factor.
	orderLast []int32
}

// PreferLast requests that the given original columns be eliminated last.
// Must be called before the first Factor; typical use is marking the
// columns a nonlinear device re-stamps every Newton iteration ("hot
// columns", as in KLU's ordering for circuit matrices).
func (f *LUOf[T]) PreferLast(cols []int32) {
	f.orderLast = append(f.orderLast[:0], cols...)
	f.q = nil // force re-ordering on the next Factor
}

// ColPos returns the elimination step of an original column (only
// meaningful after a successful Factor).
func (f *LUOf[T]) ColPos(col int32) int32 { return f.qinv[col] }

// LU is the real factorization (DC, transient).
type LU = LUOf[float64]

// NewLU returns an empty real factorization object; sizing happens on the
// first Factor call.
func NewLU() *LU { return &LU{} }

// pivotMag is the magnitude Factor's partial pivoting compares: the true
// modulus, so the pivot sequence is the one a dense reference picks.
func pivotMag[T Scalar](v T) float64 {
	switch v := any(v).(type) {
	case float64:
		return math.Abs(v)
	case complex128:
		return cmplx.Abs(v)
	}
	panic("unreachable")
}

// guardMag is the magnitude the refactorization stability guard compares.
// The guard only gates the full-Factor fallback, so for complex values the
// cheap 1-norm |re|+|im| replaces the hypot-based modulus (KLU uses the
// same trick for complex pivots); it is within √2 of the true magnitude,
// which a 10⁻³ relative threshold absorbs.
func guardMag[T Scalar](v T) float64 {
	switch v := any(v).(type) {
	case float64:
		return math.Abs(v)
	case complex128:
		return math.Abs(real(v)) + math.Abs(imag(v))
	}
	panic("unreachable")
}

// Valid reports whether a successful Factor has produced a reusable
// pattern.
func (f *LUOf[T]) Valid() bool { return f.valid }

func (f *LUOf[T]) init(n int) {
	if f.n == n && f.pinv != nil {
		return
	}
	f.n = n
	f.pinv = make([]int32, n)
	f.prow = make([]int32, n)
	f.lp = make([]int32, n+1)
	f.up = make([]int32, n+1)
	f.udiag = make([]T, n)
	f.udinv = make([]T, n)
	f.w = make([]T, n)
	f.flag = make([]int32, n)
	f.stack = make([]int32, n)
	f.pstack = make([]int32, n)
	f.xi = make([]int32, n)
	f.z = make([]T, n)
	f.q = nil
	f.valid = false
}

// Factor performs a full symbolic + numeric factorization of a, selecting
// fresh pivots with partial pivoting. The fill-reducing column ordering is
// computed on the first call for a pattern and kept thereafter.
func (f *LUOf[T]) Factor(a *MatrixOf[T]) error {
	n := a.N
	f.init(n)
	f.valid = false
	if f.q == nil || len(f.q) != n {
		if f.NoOrder {
			f.q = make([]int32, n)
			for i := range f.q {
				f.q[i] = int32(i)
			}
		} else {
			f.q = minDegreeOrderLast(n, a.ColPtr, a.Row, f.orderLast)
		}
		f.qinv = make([]int32, n)
		for t, j := range f.q {
			f.qinv[j] = int32(t)
		}
	}
	for i := 0; i < n; i++ {
		f.pinv[i] = -1
		f.flag[i] = 0
	}
	f.stamp = 0
	f.li = f.li[:0]
	f.lx = f.lx[:0]
	f.ui = f.ui[:0]
	f.ux = f.ux[:0]
	for t := 0; t < n; t++ {
		j := int(f.q[t])
		top := f.reach(a, j)
		// Scatter A(:,j) over the pattern (fill positions start at zero).
		for p := top; p < n; p++ {
			f.w[f.xi[p]] = 0
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			f.w[a.Row[p]] = a.Val[p]
		}
		// Numeric left-looking elimination in topological order.
		f.up[t] = int32(len(f.ui))
		for p := top; p < n; p++ {
			r := f.xi[p]
			k := f.pinv[r]
			if k < 0 {
				continue
			}
			ukj := f.w[r]
			f.ui = append(f.ui, k)
			f.ux = append(f.ux, ukj)
			if ukj == 0 {
				continue
			}
			for lpp := f.lp[k]; lpp < f.lp[k+1]; lpp++ {
				f.w[f.li[lpp]] -= f.lx[lpp] * ukj
			}
		}
		// Partial pivoting over the unpivoted pattern rows; ties break to
		// the lowest original row index for determinism.
		pivRow := int32(-1)
		maxAbs := -1.0
		for p := top; p < n; p++ {
			r := f.xi[p]
			if f.pinv[r] >= 0 {
				continue
			}
			av := pivotMag(f.w[r])
			//easybolint:ok floateq deterministic pivot tie-break: equal magnitudes pick the lower row; NaN is rejected after the scan
			if av > maxAbs || (av == maxAbs && r < pivRow) {
				maxAbs = av
				pivRow = r
			}
		}
		if pivRow < 0 || maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		piv := f.w[pivRow]
		f.pinv[pivRow] = int32(t)
		f.prow[t] = pivRow
		pivInv := 1 / piv
		f.udiag[t] = piv
		f.udinv[t] = pivInv
		f.lp[t] = int32(len(f.li))
		for p := top; p < n; p++ {
			r := f.xi[p]
			if f.pinv[r] >= 0 {
				continue
			}
			f.li = append(f.li, r)
			f.lx = append(f.lx, f.w[r]*pivInv)
		}
		f.lp[t+1] = int32(len(f.li))
	}
	f.up[n] = int32(len(f.ui))
	f.liPerm = append(f.liPerm[:0], f.li...)
	for p, r := range f.liPerm {
		f.liPerm[p] = f.pinv[r]
	}
	f.uprow = append(f.uprow[:0], f.ui...)
	for p, k := range f.uprow {
		f.uprow[p] = f.prow[k]
	}
	f.valid = true
	return nil
}

// reach computes the nonzero pattern of column j after elimination through
// the L factor built so far: the set of rows reachable from A(:,j) in the
// graph whose pivoted rows link to their L-column entries. Results land in
// f.xi[top:n] in topological order; f.flag marks visited rows.
func (f *LUOf[T]) reach(a *MatrixOf[T], j int) int {
	f.stamp++
	top := f.n
	for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
		r := a.Row[p]
		if f.flag[r] == f.stamp {
			continue
		}
		top = f.dfs(r, top)
	}
	return top
}

func (f *LUOf[T]) dfs(root int32, top int) int {
	head := 0
	f.stack[0] = root
	for head >= 0 {
		r := f.stack[head]
		k := f.pinv[r]
		if f.flag[r] != f.stamp {
			f.flag[r] = f.stamp
			if k < 0 {
				f.pstack[head] = 0
			} else {
				f.pstack[head] = f.lp[k]
			}
		}
		done := true
		if k >= 0 {
			for p := f.pstack[head]; p < f.lp[k+1]; p++ {
				rr := f.li[p]
				if f.flag[rr] == f.stamp {
					continue
				}
				f.pstack[head] = p + 1
				head++
				f.stack[head] = rr
				done = false
				break
			}
		}
		if done {
			head--
			top--
			f.xi[top] = r
		}
	}
	return top
}

// Refactor redoes the numeric elimination of a on the frozen pattern and
// pivot sequence from the last Factor. It allocates nothing. ErrPivot is
// returned when a frozen pivot has become unstable (caller should Factor);
// the factorization is invalid until a subsequent successful call.
func (f *LUOf[T]) Refactor(a *MatrixOf[T]) error { return f.RefactorFrom(a, 0) }

// RefactorFrom is a partial numeric refactorization: elimination steps
// before `from` are kept as-is. Valid only when every column of a whose
// values changed since the factors were computed has ColPos ≥ from — the
// left-looking elimination of step t reads only A(:,q[t]) and factor
// columns < t, so an untouched prefix stays exact. Combine with PreferLast
// so frequently-changing columns sit at the end and `from` stays large.
func (f *LUOf[T]) RefactorFrom(a *MatrixOf[T], from int) error {
	if !f.valid {
		return ErrPivot
	}
	n := f.n
	if from < 0 {
		from = 0
	}
	if from >= n {
		return nil
	}
	f.valid = false
	for t := from; t < n; t++ {
		j := int(f.q[t])
		// Zero the workspace over this column's frozen pattern, then
		// scatter A(:,j) (a structural subset of the pattern).
		for p := f.up[t]; p < f.up[t+1]; p++ {
			f.w[f.uprow[p]] = 0
		}
		f.w[f.prow[t]] = 0
		for p := f.lp[t]; p < f.lp[t+1]; p++ {
			f.w[f.li[p]] = 0
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			f.w[a.Row[p]] = a.Val[p]
		}
		// Replay the elimination in the recorded topological order.
		for p := f.up[t]; p < f.up[t+1]; p++ {
			k := f.ui[p]
			ukj := f.w[f.uprow[p]]
			f.ux[p] = ukj
			if ukj == 0 {
				continue
			}
			for lpp := f.lp[k]; lpp < f.lp[k+1]; lpp++ {
				f.w[f.li[lpp]] -= f.lx[lpp] * ukj
			}
		}
		piv := f.w[f.prow[t]]
		pivAbs := guardMag(piv)
		maxAbs := pivAbs
		for p := f.lp[t]; p < f.lp[t+1]; p++ {
			if av := guardMag(f.w[f.li[p]]); av > maxAbs {
				maxAbs = av
			}
		}
		if pivAbs == 0 || math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) ||
			pivAbs < pivTol*maxAbs {
			return ErrPivot
		}
		pivInv := 1 / piv
		f.udiag[t] = piv
		f.udinv[t] = pivInv
		for p := f.lp[t]; p < f.lp[t+1]; p++ {
			f.lx[p] = f.w[f.li[p]] * pivInv
		}
	}
	f.valid = true
	return nil
}

// Solve writes the solution of A·x = b into x using the current factors.
// b and x may alias; no allocations.
func (f *LUOf[T]) Solve(b, x []T) {
	if !f.valid {
		panic("sparse: Solve without a valid factorization")
	}
	n := f.n
	z := f.z
	for t := 0; t < n; t++ {
		z[t] = b[f.prow[t]]
	}
	// Forward substitution with unit-lower L (row ids pre-mapped to steps).
	lp, liPerm, lx := f.lp, f.liPerm, f.lx
	for t := 0; t < n; t++ {
		zt := z[t]
		if zt == 0 {
			continue
		}
		for p := lp[t]; p < lp[t+1]; p++ {
			z[liPerm[p]] -= lx[p] * zt
		}
	}
	// Back substitution with U (multiply by the cached reciprocal pivot:
	// one rounding step vs. the division, well inside the solver's
	// accuracy budget, and measurably cheaper on the per-iteration path).
	up, ui, ux := f.up, f.ui, f.ux
	for t := n - 1; t >= 0; t-- {
		zt := z[t] * f.udinv[t]
		z[t] = zt
		if zt == 0 {
			continue
		}
		for p := up[t]; p < up[t+1]; p++ {
			z[ui[p]] -= ux[p] * zt
		}
	}
	for t := 0; t < n; t++ {
		x[f.q[t]] = z[t]
	}
}
