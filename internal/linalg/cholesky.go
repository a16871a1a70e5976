package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite even after the allowed jitter.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ, together with the
// jitter that had to be added to the diagonal to achieve positive
// definiteness (0 for well-conditioned inputs).
type Cholesky struct {
	L      *Matrix
	N      int
	Jitter float64
}

// NewCholesky factors the symmetric positive definite matrix a.
// The input is not modified. If the bare factorization fails, an adaptive
// jitter (starting at 1e-12 times the largest diagonal entry, growing by
// 10× up to maxTries times) is added to the diagonal; this is the standard
// guard for near-singular Gaussian-process covariance matrices.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := NewCholeskyInto(c, a); err != nil {
		return nil, err
	}
	return c, nil
}

// NewCholeskyInto is NewCholesky into dst's storage: dst.L is reused when it
// is already n×n (a caller factoring many matrices of one size allocates
// nothing after the first) and allocated otherwise. Only the lower triangle
// of dst.L is written, so a reused L must never have been written above its
// diagonal — true of any L this package produced. On error dst is garbage.
func NewCholeskyInto(dst *Cholesky, a *Matrix) error {
	if a.Rows != a.Cols {
		return ErrDimension
	}
	n := a.Rows
	if dst.L == nil || dst.L.Rows != n || dst.L.Cols != n {
		dst.L = NewMatrix(n, n)
	}
	dst.N = n
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	const maxTries = 10
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		if tryCholesky(dst.L, a, jitter) {
			dst.Jitter = jitter
			return nil
		}
		if jitter == 0 {
			jitter = 1e-12 * scale
		} else {
			jitter *= 10
		}
	}
	return ErrNotPositiveDefinite
}

// tryCholesky writes the factor of a + jitter·I into the lower triangle of
// L, column by column; it reports false at the first non-positive pivot.
func tryCholesky(L, a *Matrix, jitter float64) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := L.Row(j)[: j+1 : j+1]
		d := a.Data[j*n+j] + jitter
		for _, ljk := range lj[:j] {
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		// Each row's sum is one dependency chain; four rows' chains are
		// independent and overlap in the pipeline, each keeping its own
		// operations in their order (as in SolveLowerMulti).
		i := j + 1
		for ; i+4 <= n; i += 4 {
			l0, l1 := L.Row(i)[:j+1:j+1], L.Row(i + 1)[:j+1:j+1]
			l2, l3 := L.Row(i + 2)[:j+1:j+1], L.Row(i + 3)[:j+1:j+1]
			s0, s1 := a.Data[i*n+j], a.Data[(i+1)*n+j]
			s2, s3 := a.Data[(i+2)*n+j], a.Data[(i+3)*n+j]
			for k, ljk := range lj[:j] {
				s0 -= l0[k] * ljk
				s1 -= l1[k] * ljk
				s2 -= l2[k] * ljk
				s3 -= l3[k] * ljk
			}
			l0[j], l1[j], l2[j], l3[j] = s0/ljj, s1/ljj, s2/ljj, s3/ljj
		}
		for ; i < n; i++ {
			li := L.Row(i)[: j+1 : j+1]
			s := a.Data[i*n+j]
			for k, ljk := range lj[:j] {
				s -= li[k] * ljk
			}
			li[j] = s / ljj
		}
	}
	return true
}

// Append returns a new factorization extended by k rows in O(k·n²) instead
// of the O(n³) a full refactorization would cost. rows[i] holds the
// covariances of appended point i with the n existing points followed by the
// already-appended points 0..i-1 (length n+i); diag[i] is its own variance
// (diagonal entry, jitter excluded — the factor's existing Jitter is applied
// so the result matches what NewCholesky would produce on the full matrix
// at the same jitter level).
//
// The receiver is not modified. If the extended matrix is not positive
// definite at the current jitter, ErrNotPositiveDefinite is returned and the
// caller should fall back to a full refactorization.
func (c *Cholesky) Append(rows [][]float64, diag []float64) (*Cholesky, error) {
	k := len(rows)
	if k == 0 {
		return c, nil
	}
	if len(diag) != k {
		return nil, ErrDimension
	}
	for i, r := range rows {
		if len(r) != c.N+i {
			return nil, ErrDimension
		}
	}
	n := c.N
	nk := n + k
	L := NewMatrix(nk, nk)
	for i := 0; i < n; i++ {
		copy(L.Row(i)[:n], c.L.Row(i))
	}
	// Each appended row is one more step of the standard Cholesky recurrence,
	// with the same operation order as tryCholesky so an Append-built factor
	// is bitwise identical to a from-scratch one at the same jitter.
	for i := 0; i < k; i++ {
		m := n + i
		row := rows[i]
		lm := L.Row(m)
		for j := 0; j < m; j++ {
			s := row[j]
			lj := L.Row(j)
			for t := 0; t < j; t++ {
				s -= lm[t] * lj[t]
			}
			lm[j] = s / lj[j]
		}
		d := diag[i] + c.Jitter
		for t := 0; t < m; t++ {
			d -= lm[t] * lm[t]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		lm[m] = math.Sqrt(d)
	}
	return &Cholesky{L: L, N: nk, Jitter: c.Jitter}, nil
}

// RankUpdate applies the symmetric rank-1 update A → A + v·vᵀ to the
// factorization in place, in O(n²) (the classic Givens-based cholupdate):
// rotation k turns entry k of v into the diagonal L[k][k], and every row
// below it goes through the rotations of the rows above it in order. v is
// consumed as scratch and is garbage afterwards; the only other storage is
// the n cosines. Because v·vᵀ is positive semidefinite, the update cannot
// lose positive definiteness; the dimension check is the only failure mode.
//
// The textbook sweep carries each rotation down its column, a walk of L at a
// stride of one row. Here row i takes rotations k = 0…i−1 against its own
// contiguous entries, carrying its entry of v as w, and then makes rotation
// i from what w has become: each L[i][k] sees (L[i][k] + s·w)/c and w sees
// c·w − s·L[i][k] in the column sweep's order, so every bit is the column
// sweep's (refRankUpdate in the tests). Rows i…i+3 take the rotations of the
// rows above them together, four independent chains, and close the 4×4
// triangle between them in row order, as SolveLowerInto does.
func (c *Cholesky) RankUpdate(v []float64) error {
	n := c.N
	if len(v) != n {
		return ErrDimension
	}
	// Rotation k is (cs[k], v[k]): v[k] is not read again once row k has
	// taken it into w, so it holds the sine from then on.
	cs, sn := make([]float64, n), v
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := c.L.Row(i)[:i+4], c.L.Row(i + 1)[:i+4], c.L.Row(i + 2)[:i+4], c.L.Row(i + 3)[:i+4]
		w0, w1, w2, w3 := v[i], v[i+1], v[i+2], v[i+3]
		p0, q1, q2, q3 := r0[:i], r1[:i], r2[:i], r3[:i]
		for k, l0 := range p0 {
			s := sn[k]
			if s == 0 {
				continue
			}
			cc := cs[k]
			l0 = (l0 + s*w0) / cc
			l1 := (q1[k] + s*w1) / cc
			l2 := (q2[k] + s*w2) / cc
			l3 := (q3[k] + s*w3) / cc
			w0 = cc*w0 - s*l0
			w1 = cc*w1 - s*l1
			w2 = cc*w2 - s*l2
			w3 = cc*w3 - s*l3
			p0[k], q1[k], q2[k], q3[k] = l0, l1, l2, l3
		}
		cs[i], sn[i] = givens(&r0[i], w0)
		w1 = rotate(&r1[i], w1, cs[i], sn[i])
		w2 = rotate(&r2[i], w2, cs[i], sn[i])
		w3 = rotate(&r3[i], w3, cs[i], sn[i])
		cs[i+1], sn[i+1] = givens(&r1[i+1], w1)
		w2 = rotate(&r2[i+1], w2, cs[i+1], sn[i+1])
		w3 = rotate(&r3[i+1], w3, cs[i+1], sn[i+1])
		cs[i+2], sn[i+2] = givens(&r2[i+2], w2)
		w3 = rotate(&r3[i+2], w3, cs[i+2], sn[i+2])
		cs[i+3], sn[i+3] = givens(&r3[i+3], w3)
	}
	for ; i < n; i++ {
		row := c.L.Row(i)[: i+1 : i+1]
		w := v[i]
		for k := range row[:i] {
			w = rotate(&row[k], w, cs[k], sn[k])
		}
		cs[i], sn[i] = givens(&row[i], w)
	}
	return nil
}

// givens makes the rotation that turns w into the diagonal entry *l,
// writes the rotated diagonal there and returns the rotation's c and s.
func givens(l *float64, w float64) (c, s float64) {
	lkk := *l
	r := math.Hypot(lkk, w)
	*l = r
	return r / lkk, w / lkk
}

// rotate applies the rotation (c, s) to the entry *l of a row below its
// diagonal and to the row's carried w, which it returns; s = 0 leaves both.
func rotate(l *float64, w, c, s float64) float64 {
	if s == 0 {
		return w
	}
	lik := (*l + s*w) / c
	*l = lik
	return c*w - s*lik
}

// Solve returns x such that A·x = b, reusing the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveInto(x, b)
	return x
}

// SolveInto solves A·x = b into dst without allocating. dst may alias b.
func (c *Cholesky) SolveInto(dst, b []float64) {
	c.SolveLowerInto(dst, b)
	c.SolveUpperTInto(dst, dst)
}

// SolveLowerInto solves L·y = b into dst without allocating (forward
// substitution over the contiguous rows of L). dst may alias b. It is the
// one-right-hand-side case of SolveLowerMulti.
//
// Rows i…i+3 all subtract multiples of the already-solved prefix y[:i], so
// over that prefix their four sums are independent chains and go through it
// together; the 4×4 triangle between them is then closed in row order. Each
// y[i] still sees s −= L[i][k]·y[k] for k = 0…i−1 ascending and then the one
// division — the plain loop (the tail below, and refSolveLower in the tests)
// with its rows interleaved, every bit the same.
func (c *Cholesky) SolveLowerInto(dst, b []float64) {
	n := c.N
	if len(b) != n || len(dst) != n {
		panic("linalg: Cholesky.SolveLowerInto dimension mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := c.L.Row(i)[:n], c.L.Row(i + 1)[:n], c.L.Row(i + 2)[:n], c.L.Row(i + 3)[:n]
		// b is read before dst is written: the two may be one slice.
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		q1, q2, q3 := r1[:i], r2[:i], r3[:i]
		for k, l := range r0[:i] {
			v := dst[k]
			s0 -= l * v
			s1 -= q1[k] * v
			s2 -= q2[k] * v
			s3 -= q3[k] * v
		}
		v0 := s0 / r0[i]
		s1 -= r1[i] * v0
		v1 := s1 / r1[i+1]
		s2 -= r2[i] * v0
		s2 -= r2[i+1] * v1
		v2 := s2 / r2[i+2]
		s3 -= r3[i] * v0
		s3 -= r3[i+1] * v1
		s3 -= r3[i+2] * v2
		v3 := s3 / r3[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = v0, v1, v2, v3
	}
	for ; i < n; i++ {
		row := c.L.Row(i)
		s := b[i]
		for k, l := range row[:i] {
			s -= l * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// SolveWidth is how many right-hand sides SolveLowerMulti carries through
// one pass over the factor; callers that batch solves size their scratch for
// groups of this many.
const SolveWidth = 4

// SolveLowerMulti solves L·y = b for several right-hand sides in place:
// each vs[j] holds b on entry and y on return. The sides are taken SolveWidth
// at a time through one pass over L with one scalar accumulator per side and
// row.
//
// In forward substitution every s −= L[i][k]·y[k] waits for the subtraction
// before it, so one sum runs at floating-point add latency while the
// multiplier and the other add ports idle. Sums that do not feed one another
// interleave in the pipeline: the same row of different sides, and — over
// the prefix of y already solved — neighbouring rows of one side. The widths
// the acquisition maximizer solves at with two or more workers keep four
// such chains in flight (1 side × 4 rows, 4 × 1; groups of two and three
// arise only in a one-worker process and stay one row at a time), and each
// element still sees exactly the plain loop's operations in the plain loop's
// order, so every result is bit-identical to a solve on its own. (Splitting one sum into several accumulators would
// also break the chain, but reassociates the sum and changes its rounding.)
func (c *Cholesky) SolveLowerMulti(vs [][]float64) {
	for _, v := range vs {
		if len(v) != c.N {
			panic("linalg: Cholesky.SolveLowerMulti dimension mismatch")
		}
	}
	for ; len(vs) >= SolveWidth; vs = vs[SolveWidth:] {
		c.solveLower4(vs[0], vs[1], vs[2], vs[3])
	}
	switch len(vs) {
	case 3:
		c.solveLower3(vs[0], vs[1], vs[2])
	case 2:
		c.solveLower2(vs[0], vs[1])
	case 1:
		c.SolveLowerInto(vs[0], vs[0])
	}
}

func (c *Cholesky) solveLower2(y0, y1 []float64) {
	n := c.N
	y0, y1 = y0[:n], y1[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)[:n]
		s0, s1 := y0[i], y1[i]
		p0, p1 := y0[:i], y1[:i]
		for k, l := range row[:i] {
			s0 -= l * p0[k]
			s1 -= l * p1[k]
		}
		y0[i], y1[i] = s0/row[i], s1/row[i]
	}
}

// solveLower3 stays the one-row loop, as solveLower2 does: only a one-worker
// process refines three sides at a time, and no recorded configuration runs
// one (DESIGN.md §14.1).
func (c *Cholesky) solveLower3(y0, y1, y2 []float64) {
	n := c.N
	y0, y1, y2 = y0[:n], y1[:n], y2[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)[:n]
		s0, s1, s2 := y0[i], y1[i], y2[i]
		p0, p1, p2 := y0[:i], y1[:i], y2[:i]
		for k, l := range row[:i] {
			s0 -= l * p0[k]
			s1 -= l * p1[k]
			s2 -= l * p2[k]
		}
		y0[i], y1[i], y2[i] = s0/row[i], s1/row[i], s2/row[i]
	}
}

func (c *Cholesky) solveLower4(y0, y1, y2, y3 []float64) {
	n := c.N
	y0, y1, y2, y3 = y0[:n], y1[:n], y2[:n], y3[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)[:n]
		s0, s1, s2, s3 := y0[i], y1[i], y2[i], y3[i]
		p0, p1, p2, p3 := y0[:i], y1[:i], y2[:i], y3[:i]
		for k, l := range row[:i] {
			s0 -= l * p0[k]
			s1 -= l * p1[k]
			s2 -= l * p2[k]
			s3 -= l * p3[k]
		}
		y0[i], y1[i], y2[i], y3[i] = s0/row[i], s1/row[i], s2/row[i], s3/row[i]
	}
}

// SolveUpperT returns x solving Lᵀ·x = y (back substitution). Because
// A⁻¹ = L⁻ᵀL⁻¹, this is also the map z ↦ L⁻ᵀz used to draw samples with
// covariance A⁻¹.
func (c *Cholesky) SolveUpperT(y []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveUpperTInto(x, y)
	return x
}

// SolveUpperTInto solves Lᵀ·x = y into dst without allocating. dst may
// alias y. Instead of the textbook inner product over a column of L (a
// strided, cache-hostile walk of the row-major factor), it sweeps rows of L:
// as each x[i] is resolved, its contribution L[i][k]·x[i] is subtracted from
// the still-pending entries k < i, so every memory access is contiguous.
func (c *Cholesky) SolveUpperTInto(dst, y []float64) {
	n := c.N
	if len(y) != n || len(dst) != n {
		panic("linalg: Cholesky.SolveUpperTInto dimension mismatch")
	}
	if n == 0 {
		return
	}
	if &dst[0] != &y[0] {
		copy(dst, y)
	}
	for i := n - 1; i >= 0; i-- {
		row := c.L.Row(i)
		xi := dst[i] / row[i]
		dst[i] = xi
		// dst[k] −= row[k]·xi for k < i: the pending entries are independent
		// of one another, so the four-wide Axpy changes no bit of them.
		Axpy(-xi, row[:i], dst[:i])
	}
}

// Inverse returns A⁻¹, exactly symmetric: InverseUpperInto plus the mirror.
// Prefer Solve when only products are needed.
func (c *Cholesky) Inverse() *Matrix {
	n := c.N
	out := NewMatrix(n, n)
	c.InverseUpperInto(out, NewMatrix(n, n))
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for j := i + 1; j < n; j++ {
			out.Set(j, i, orow[j])
		}
	}
	return out
}

// InverseUpperInto writes the upper triangle (diagonal included) of A⁻¹ into
// out, LAPACK dpotri-style: first G = L⁻¹ into the lower triangle of the
// scratch g (built row by row with contiguous axpy updates), then A⁻¹ = GᵀG
// accumulated rank-1 row by row — ~n³/3 streaming work against the n³ of a
// column-by-column solve. out and g are n×n and distinct; neither's other
// triangle is read or written, and nothing is allocated.
func (c *Cholesky) InverseUpperInto(out, g *Matrix) {
	n := c.N
	if out.Rows != n || out.Cols != n || g.Rows != n || g.Cols != n {
		panic("linalg: Cholesky.InverseUpperInto dimension mismatch")
	}
	// G = L⁻¹: row i solves G[i][:] from the rows above it,
	//   G[i][j] = (δ_ij − Σ_{k<i} L[i][k]·G[k][j]) / L[i][i].
	for i := 0; i < n; i++ {
		lrow := c.L.Row(i)
		grow := g.Row(i)[: i+1 : i+1]
		clear(grow)
		grow[i] = 1
		for k := 0; k < i; k++ {
			coef := lrow[k]
			if coef == 0 {
				continue
			}
			// grow[j] -= coef·G[k][j], as the addition of its negation:
			// x − c·b and x + (−c)·b are the same IEEE operation.
			Axpy(-coef, g.Row(k)[:k+1], grow[:k+1])
		}
		inv := 1 / lrow[i]
		for j := range grow {
			grow[j] *= inv
		}
	}
	// A⁻¹ = GᵀG: accumulate each row of G as a rank-1 update of the upper
	// triangle (row k only touches the leading (k+1)×(k+1) block).
	for i := 0; i < n; i++ {
		clear(out.Row(i)[i:])
	}
	for k := 0; k < n; k++ {
		gk := g.Row(k)[: k+1 : k+1]
		for i, gki := range gk {
			if gki == 0 {
				continue
			}
			Axpy(gki, gk[i:], out.Row(i)[i:k+1])
		}
	}
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.N; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
