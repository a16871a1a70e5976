package linalg

import (
	"errors"
	"math"
	"slices"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite even after the allowed jitter.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ, together with the
// jitter that had to be added to the diagonal to achieve positive
// definiteness (0 for well-conditioned inputs).
//
// L is stored packed by rows: row i is its i+1 entries up to and including
// the diagonal, and the rows follow one another, so the factor takes
// n(n+1)/2 values and every kernel below walks contiguous rows. Growing the
// factor (Append) only adds rows at the end of that storage.
type Cholesky struct {
	N      int
	Jitter float64
	tri    []float64 // row i is tri[i(i+1)/2 : (i+1)(i+2)/2]
}

// Row returns row i of L up to and including its diagonal, L[i][0…i]: a
// view of the factor, not a copy.
func (c *Cholesky) Row(i int) []float64 {
	o := i * (i + 1) / 2
	return c.tri[o : o+i+1 : o+i+1]
}

// rows4 returns rows i…i+3 of L, which follow one another in the packed
// storage, from one offset: what the four-row kernels below take.
func (c *Cholesky) rows4(i int) (r0, r1, r2, r3 []float64) {
	o := packedLen(i)
	r := c.tri[o : o+4*i+10 : o+4*i+10]
	return r[: i+1 : i+1], r[i+1 : 2*i+3 : 2*i+3], r[2*i+3 : 3*i+6 : 3*i+6], r[3*i+6:]
}

// packedLen is the storage of an n-row factor.
func packedLen(n int) int { return n * (n + 1) / 2 }

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

// NewCholeskyInto is NewCholesky into dst's storage: it is reused when its
// capacity holds the factor (a caller factoring many matrices of one size
// allocates nothing after the first) and allocated otherwise. Each try packs
// a's lower triangle, with that try's jitter on the diagonal, into dst's rows
// and factors it there (factor), so what the storage held does not matter.
// On error dst is garbage.
func NewCholeskyInto(dst *Cholesky, a *Matrix) error {
	if a.Rows != a.Cols {
		return ErrDimension
	}
	n := a.Rows
	if need := packedLen(n); cap(dst.tri) >= need {
		dst.tri = dst.tri[:need]
	} else {
		dst.tri = make([]float64, need)
	}
	dst.N = n
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	const maxTries = 10
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		for i := 0; i < n; i++ {
			row := dst.Row(i)
			copy(row, a.Data[i*n:i*n+i+1])
			row[i] += jitter
		}
		if dst.factor() {
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

// NewCholeskyPacked factors in place, at zero jitter, the n×n symmetric
// matrix A whose lower triangle tri holds in the factor's own layout: row i
// is A[i][0…i] at tri[i(i+1)/2:], n(n+1)/2 values in all. The factor it
// returns owns tri; nothing is allocated but its header. At a non-positive
// pivot it returns ErrNotPositiveDefinite and tri is garbage: a caller that
// wants the jitter ladder assembles A again and calls NewCholesky, whose
// zero-jitter try is this factorization, bit for bit.
func NewCholeskyPacked(n int, tri []float64) (*Cholesky, error) {
	if len(tri) != packedLen(n) {
		return nil, ErrDimension
	}
	c := &Cholesky{N: n, tri: tri}
	if !c.factor() {
		return nil, ErrNotPositiveDefinite
	}
	return c, nil
}

// factor overwrites the lower triangle of A held in c's rows (jitter
// included on the diagonal) with its factor L, column by column; it reports
// false at the first non-positive pivot. Column j reads row j's and the
// rows below's entries 0…j−1, which are L's by then, and their entry j,
// which is still A's.
func (c *Cholesky) factor() bool {
	n := c.N
	for j := 0; j < n; j++ {
		lj := c.Row(j)
		d := lj[j]
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
			l0, l1, l2, l3 := c.rows4(i)
			l0, l1, l2, l3 = l0[:j+1:j+1], l1[:j+1:j+1], l2[:j+1:j+1], l3[:j+1:j+1]
			s0, s1, s2, s3 := l0[j], l1[j], l2[j], l3[j]
			for k, ljk := range lj[:j] {
				s0 -= l0[k] * ljk
				s1 -= l1[k] * ljk
				s2 -= l2[k] * ljk
				s3 -= l3[k] * ljk
			}
			l0[j], l1[j], l2[j], l3[j] = s0/ljj, s1/ljj, s2/ljj, s3/ljj
		}
		for ; i < n; i++ {
			li := c.Row(i)[: j+1 : j+1]
			s := li[j]
			for k, ljk := range lj[:j] {
				s -= li[k] * ljk
			}
			li[j] = s / ljj
		}
	}
	return true
}

// Append extends the factorization by k rows in O(k·n²) instead of the
// O(n³) a full refactorization would cost. rows[i] holds the covariances of
// appended point i with the n existing points followed by the
// already-appended points 0..i-1 (length n+i); diag[i] is its own variance
// (diagonal entry, jitter excluded — the factor's existing Jitter is applied
// so the result matches what NewCholesky would produce on the full matrix
// at the same jitter level).
//
// The factor grows in place: the new rows are written after the receiver's,
// into its spare capacity, and the storage is reallocated (by append, so
// with headroom for the appends after it) only when that runs out. The
// receiver is spent on success: the result owns the storage, the
// receiver's rows are the result's first n rows, and another append to the
// receiver would write over the result's new ones. If the extended matrix is not positive definite at the current
// jitter, ErrNotPositiveDefinite is returned, the receiver's rows and N are
// as they were, and the caller should fall back to a full refactorization.
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
	out := &Cholesky{N: nk, Jitter: c.Jitter,
		tri: slices.Grow(c.tri[:packedLen(n)], packedLen(nk)-packedLen(n))[:packedLen(nk)]}
	// Each appended row is one more step of the standard Cholesky recurrence,
	// with the same operation order as factor so an Append-built factor is
	// bitwise identical to a from-scratch one at the same jitter.
	for i := 0; i < k; i++ {
		m := n + i
		row := rows[i]
		lm := out.Row(m)
		for j, s := range row {
			lj, lmj := out.Row(j), lm[:j]
			for t, l := range lj[:j] {
				s -= lmj[t] * l
			}
			lm[j] = s / lj[j]
		}
		d := diag[i] + c.Jitter
		for _, l := range lm[:m] {
			d -= l * l
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		lm[m] = math.Sqrt(d)
	}
	return out, nil
}

// RankUpdate applies the symmetric rank-1 update A → A + v·vᵀ to the
// factorization in place, in O(n²) (the classic Givens-based cholupdate):
// rotation k turns entry k of v into the diagonal L[k][k], and every row
// below it goes through the rotations of the rows above it in order. v is
// consumed as scratch and is garbage afterwards, and cs, n floats of the
// caller's, holds the rotations' cosines: the update allocates nothing, so a
// caller that keeps the two buffers (the feature backend's tell) updates
// with no garbage. Because v·vᵀ is positive semidefinite, the update cannot
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
func (c *Cholesky) RankUpdate(v, cs []float64) error {
	n := c.N
	if len(v) != n || len(cs) != n {
		return ErrDimension
	}
	// Rotation k is (cs[k], v[k]): v[k] is not read again once row k has
	// taken it into w, so it holds the sine from then on. cs[k] is written
	// when row k makes its rotation, before any row reads it.
	sn := v
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := c.rows4(i)
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
		row := c.Row(i)
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
		r0, r1, r2, r3 := c.rows4(i)
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
		row := c.Row(i)
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
		row := c.Row(i)
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
		row := c.Row(i)
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
		row := c.Row(i)
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

// SolveUpperTInto solves Lᵀ·x = y (back substitution) into dst without
// allocating. dst may alias y. Instead of the textbook inner product over a
// column of L (a strided, cache-hostile walk of the row-major factor), it
// sweeps rows of L: as each x[i] is resolved, its contribution L[i][k]·x[i]
// is subtracted from the still-pending entries k < i, so every memory
// access is contiguous.
//
// After the n mod 4 last rows, rows i+3…i of each aligned block are resolved
// together (their 4×4 triangle in descending row order) and swept over the
// pending dst[:i] at once: one load and one store of dst[k] per four
// subtractions, taken in the plain loop's order, row i+3 first
// (refSolveUpperT in the tests), every bit the same.
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
	i := n
	for i&3 != 0 {
		i--
		row := c.Row(i)
		xi := dst[i] / row[i]
		dst[i] = xi
		for k, l := range row[:i] {
			dst[k] -= l * xi
		}
	}
	for i -= 4; i >= 0; i -= 4 {
		r0, r1, r2, r3 := c.rows4(i)
		x3 := dst[i+3] / r3[i+3]
		s2 := dst[i+2] - r3[i+2]*x3
		x2 := s2 / r2[i+2]
		s1 := dst[i+1] - r3[i+1]*x3
		s1 -= r2[i+1] * x2
		x1 := s1 / r1[i+1]
		s0 := dst[i] - r3[i]*x3
		s0 -= r2[i] * x2
		s0 -= r1[i] * x1
		x0 := s0 / r0[i]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = x0, x1, x2, x3
		p, q1, q2, q3 := dst[:i], r1[:i], r2[:i], r3[:i]
		for k, l := range r0[:i] {
			s := p[k]
			s -= q3[k] * x3
			s -= q2[k] * x2
			s -= q1[k] * x1
			s -= l * x0
			p[k] = s
		}
	}
}

// Inverse returns A⁻¹, exactly symmetric: InverseUpperInto, with the
// result's own lower triangle as the scratch for L⁻¹, plus the mirror.
// Prefer Solve when only products are needed.
func (c *Cholesky) Inverse() *Matrix {
	n := c.N
	out := NewMatrix(n, n)
	upper := make([]float64, packedLen(n))
	c.InverseUpperInto(upper, out)
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for j, v := range upper[:n-i] {
			orow[i+j] = v
			out.Set(i+j, i, v)
		}
		upper = upper[n-i:]
	}
	return out
}

// InverseUpperInto writes the upper triangle (diagonal included) of A⁻¹
// into out packed by rows — row i is its n−i entries from the diagonal on,
// starting at i·n − i(i−1)/2, n(n+1)/2 values in all — LAPACK dpotri-style:
// first G = L⁻¹ into the lower triangle (diagonal included) of the n×n
// scratch g, row by row, then A⁻¹ = GᵀG accumulated rank-1 row of G by row —
// ~n³/3 streaming work against the n³ of a column-by-column solve. The
// strict upper triangle of g is neither read nor written, so it may hold
// data the caller still needs; nothing is allocated.
//
// Both passes take four rows of G at a time (axpy4): each element of the
// row being written is loaded once, takes the four rows' terms in
// ascending row order, one rounded add each, and is stored once — the
// per-row Axpy sweeps with their rows interleaved, every bit the same. A
// group in which a coefficient is zero goes row by row instead, skipping
// that row as the plain loop does: the skip decides whether 0·∞ is ever
// formed, so it is arithmetic, not an optimization.
func (c *Cholesky) InverseUpperInto(out []float64, g *Matrix) {
	n := c.N
	if len(out) != packedLen(n) || g.Rows != n || g.Cols != n {
		panic("linalg: Cholesky.InverseUpperInto dimension mismatch")
	}
	// gRow returns row k of G up to and including its diagonal.
	gRow := func(k int) []float64 { return g.Data[k*n : k*n+k+1 : k*n+k+1] }
	// G = L⁻¹: row i solves G[i][:] from the rows above it,
	//   G[i][j] = (δ_ij − Σ_{k<i} L[i][k]·G[k][j]) / L[i][i],
	// the sum running over k ascending; row k reaches column k at most.
	for i := 0; i < n; i++ {
		lrow := c.Row(i)
		grow := gRow(i)
		clear(grow)
		grow[i] = 1
		k := 0
		for ; k+4 <= i; k += 4 {
			// grow[j] −= coef·G[k][j] as the addition of the negation:
			// x − c·b and x + (−c)·b are the same IEEE operation.
			a0, a1, a2, a3 := -lrow[k], -lrow[k+1], -lrow[k+2], -lrow[k+3]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(a0, a1, a2, a3, gRow(k), gRow(k+1), gRow(k+2), gRow(k+3), grow[:k+4])
				continue
			}
			for m := k; m < k+4; m++ {
				if lrow[m] != 0 {
					Axpy(-lrow[m], gRow(m), grow[:m+1])
				}
			}
		}
		for ; k < i; k++ {
			if lrow[k] != 0 {
				Axpy(-lrow[k], gRow(k), grow[:k+1])
			}
		}
		inv := 1 / lrow[i]
		for j := range grow {
			grow[j] *= inv
		}
	}
	// A⁻¹ = GᵀG: each row k of G adds G[k][i]·G[k][i…k] to row i of the
	// upper triangle, for every i ≤ k, in ascending k.
	clear(out)
	// outRow returns packed row i of the upper triangle, columns i…n−1.
	outRow := func(i int) []float64 {
		o := i*n - i*(i-1)/2
		return out[o : o+n-i : o+n-i]
	}
	// rowTerm is one row k's term on row i, where G[k][i] is nonzero.
	rowTerm := func(k, i int) {
		if gki := gRow(k)[i]; gki != 0 {
			Axpy(gki, gRow(k)[i:], outRow(i)[:k+1-i])
		}
	}
	k := 0
	for ; k+4 <= n; k += 4 {
		g0, g1, g2, g3 := gRow(k), gRow(k+1), gRow(k+2), gRow(k+3)
		for i := 0; i <= k; i++ {
			a0, a1, a2, a3 := g0[i], g1[i], g2[i], g3[i]
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				axpy4(a0, a1, a2, a3, g0[i:], g1[i:], g2[i:], g3[i:], outRow(i)[:k+4-i])
				continue
			}
			for m := k; m < k+4; m++ {
				rowTerm(m, i)
			}
		}
		// Rows k+1…k+3 of the triangle start inside the group.
		for i := k + 1; i < k+4; i++ {
			for m := i; m < k+4; m++ {
				rowTerm(m, i)
			}
		}
	}
	for ; k < n; k++ {
		for i := 0; i <= k; i++ {
			rowTerm(k, i)
		}
	}
}

// axpy4 is Axpy(a0, x0, y[:len(x0)]) … Axpy(a3, x3, y[:len(x3)]) in one
// sweep, for rows that each reach one entry further than the one before
// (len(x1) = len(x0)+1, …, len(y) = len(x3) = len(x0)+3): every y[j] is
// loaded once, takes its terms in the rows' order, one rounded add each,
// and is stored once, so every bit is the four Axpys'.
func axpy4(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64) {
	m := len(x0)
	x1, x2, x3, y = x1[:m+1], x2[:m+2], x3[:m+3], y[:m+3]
	p1, p2, p3, q := x1[:m], x2[:m], x3[:m], y[:m]
	for j, v := range x0 {
		s := q[j]
		s += a0 * v
		s += a1 * p1[j]
		s += a2 * p2[j]
		s += a3 * p3[j]
		q[j] = s
	}
	s := y[m]
	s += a1 * x1[m]
	s += a2 * x2[m]
	s += a3 * x3[m]
	y[m] = s
	s = y[m+1]
	s += a2 * x2[m+1]
	s += a3 * x3[m+1]
	y[m+1] = s
	y[m+2] += a3 * x3[m+2]
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.N; i++ {
		s += math.Log(c.Row(i)[i])
	}
	return 2 * s
}
