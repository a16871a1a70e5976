package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds A = GᵀG + n·I, which is SPD with probability 1.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	g := randomMatrix(rng, n, n)
	a := g.T().Mul(g)
	a.AddToDiag(float64(n))
	return a
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMatrixFromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ch.L.At(0, 0), 2, 1e-14) || !almostEq(ch.L.At(1, 0), 1, 1e-14) ||
		!almostEq(ch.L.At(1, 1), math.Sqrt2, 1e-14) {
		t.Fatalf("wrong factor:\n%v", ch.L)
	}
	if ch.Jitter != 0 {
		t.Fatalf("unexpected jitter %v", ch.Jitter)
	}
	// log|A| = log(4*3-4) = log 8.
	if !almostEq(ch.LogDet(), math.Log(8), 1e-12) {
		t.Fatalf("LogDet = %v want %v", ch.LogDet(), math.Log(8))
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got := ch.Solve(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyFactorReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 20; n += 4 {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		llt := ch.L.Mul(ch.L.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(llt.At(i, j), a.At(i, j), 1e-10) {
					t.Fatalf("n=%d LLᵀ != A at (%d,%d): %v vs %v", n, i, j, llt.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyJitterRecovery(t *testing.T) {
	// A rank-deficient Gram matrix: Cholesky must succeed via jitter.
	a := NewMatrixFromRows([][]float64{{1, 1}, {1, 1}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Jitter <= 0 {
		t.Fatalf("expected positive jitter, got %v", ch.Jitter)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 0}, {0, -5}})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected failure on non-square matrix")
	}
}

func TestCholeskySolveMatrixAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	p := a.Mul(inv)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(p.At(i, j), want, 1e-9) {
				t.Fatalf("A·A⁻¹ not identity at (%d,%d): %v", i, j, p.At(i, j))
			}
		}
	}
}

// leadingBlock returns the leading n×n principal submatrix of a (SPD
// whenever a is SPD).
func leadingBlock(a *Matrix, n int) *Matrix {
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), a.Row(i)[:n])
	}
	return out
}

func TestCholeskyAppendMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, k := range []int{1, 2, 5} {
		for n := 1; n <= 17; n += 4 {
			big := randomSPD(rng, n+k)
			a := leadingBlock(big, n)
			base, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]float64, k)
			diag := make([]float64, k)
			for i := 0; i < k; i++ {
				rows[i] = append([]float64(nil), big.Row(n + i)[:n+i]...)
				diag[i] = big.At(n+i, n+i)
			}
			got, err := base.Append(rows, diag)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			want, err := NewCholesky(big)
			if err != nil {
				t.Fatal(err)
			}
			if got.N != n+k || got.Jitter != want.Jitter {
				t.Fatalf("n=%d k=%d: N=%d jitter %v vs %v", n, k, got.N, got.Jitter, want.Jitter)
			}
			for i := 0; i < n+k; i++ {
				for j := 0; j <= i; j++ {
					if !almostEq(got.L.At(i, j), want.L.At(i, j), 1e-12) {
						t.Fatalf("n=%d k=%d: L(%d,%d) = %v want %v", n, k, i, j, got.L.At(i, j), want.L.At(i, j))
					}
				}
			}
		}
	}
}

func TestCholeskyAppendJittered(t *testing.T) {
	// Base matrix is rank deficient: the factor carries a positive jitter.
	// Appending must reproduce the from-scratch factorization of the larger
	// matrix, which walks the identical jitter ladder.
	a := NewMatrixFromRows([][]float64{{1, 1}, {1, 1}})
	base, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if base.Jitter <= 0 {
		t.Fatal("expected jittered base factor")
	}
	big := NewMatrixFromRows([][]float64{{1, 1, 0.5}, {1, 1, 0.5}, {0.5, 0.5, 1}})
	got, err := base.Append([][]float64{{0.5, 0.5}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCholesky(big)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jitter != want.Jitter {
		t.Fatalf("jitter %v vs from-scratch %v", got.Jitter, want.Jitter)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			if !almostEq(got.L.At(i, j), want.L.At(i, j), 1e-12) {
				t.Fatalf("L(%d,%d) = %v want %v", i, j, got.L.At(i, j), want.L.At(i, j))
			}
		}
	}
	// The appended factor must reconstruct the jittered matrix.
	llt := got.L.Mul(got.L.T())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantV := big.At(i, j)
			if i == j {
				wantV += got.Jitter
			}
			if !almostEq(llt.At(i, j), wantV, 1e-10) {
				t.Fatalf("LLᵀ(%d,%d) = %v want %v", i, j, llt.At(i, j), wantV)
			}
		}
	}
}

func TestCholeskyAppendRejectsBadInput(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(21)), 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ch.Append(nil, nil); err != nil || got != ch {
		t.Fatal("empty append should be a no-op")
	}
	if _, err := ch.Append([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Fatal("short row must be rejected")
	}
	if _, err := ch.Append([][]float64{{1, 2, 3, 4}}, nil); err == nil {
		t.Fatal("diag length mismatch must be rejected")
	}
	// Appending a row that destroys positive definiteness must fail cleanly.
	if _, err := ch.Append([][]float64{{1e9, 0, 0, 0}}, []float64{1e-12}); err == nil {
		t.Fatal("indefinite extension must be rejected")
	}
}

func TestCholeskySolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 13; n += 3 {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := ch.Solve(b)
		// In-place: dst aliases b.
		got := append([]float64(nil), b...)
		ch.SolveInto(got, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: aliased SolveInto differs at %d: %v vs %v", n, i, got[i], want[i])
			}
		}
		// Separate destination.
		dst := make([]float64, n)
		ch.SolveInto(dst, b)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: SolveInto differs at %d", n, i)
			}
		}
		// SolveLowerInto / SolveUpperTInto round-trip against the factor.
		y := make([]float64, n)
		ch.SolveLowerInto(y, b)
		ly := ch.L.MulVec(y)
		for i := range b {
			if !almostEq(ly[i], b[i], 1e-9) {
				t.Fatalf("n=%d: L·y != b at %d", n, i)
			}
		}
		x := make([]float64, n)
		ch.SolveUpperTInto(x, y)
		ltx := ch.L.T().MulVec(x)
		for i := range y {
			if !almostEq(ltx[i], y[i], 1e-9) {
				t.Fatalf("n=%d: Lᵀ·x != y at %d", n, i)
			}
		}
	}
}

func TestCholeskyInverseSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 1; n <= 17; n += 4 {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		inv := ch.Inverse()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if inv.At(i, j) != inv.At(j, i) {
					t.Fatalf("n=%d: inverse not exactly symmetric at (%d,%d)", n, i, j)
				}
			}
		}
		p := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(p.At(i, j), want, 1e-9) {
					t.Fatalf("n=%d: A·A⁻¹ not identity at (%d,%d): %v", n, i, j, p.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRankUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 33; n += 8 {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		// Apply three successive rank-1 updates and compare against a full
		// factorization of the explicitly updated matrix each time.
		for rep := 0; rep < 3; rep++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Add(i, j, v[i]*v[j])
				}
			}
			if err := ch.RankUpdate(append([]float64(nil), v...)); err != nil {
				t.Fatal(err)
			}
			want, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if !almostEq(ch.L.At(i, j), want.L.At(i, j), 1e-8) {
						t.Fatalf("n=%d rep=%d: L(%d,%d) = %v, refactorization %v",
							n, rep, i, j, ch.L.At(i, j), want.L.At(i, j))
					}
				}
			}
		}
	}
}

func TestCholeskyRankUpdateDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ch, err := NewCholesky(randomSPD(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.RankUpdate(make([]float64, 3)); err == nil {
		t.Fatal("short update vector must be rejected")
	}
}

// refRankUpdate is RankUpdate as it stood before it went row by row: the
// textbook cholupdate, each rotation carried down its column through At and
// Set. RankUpdate must reproduce it bit for bit — the feature backend's every
// tell, and through it the serve-model history, stands on these bits.
func refRankUpdate(c *Cholesky, v []float64) {
	for k := 0; k < c.N; k++ {
		lkk := c.L.At(k, k)
		r := math.Hypot(lkk, v[k])
		cc := r / lkk
		s := v[k] / lkk
		c.L.Set(k, k, r)
		if s == 0 {
			continue
		}
		for i := k + 1; i < c.N; i++ {
			lik := (c.L.At(i, k) + s*v[i]) / cc
			v[i] = cc*v[i] - s*lik
			c.L.Set(i, k, lik)
		}
	}
}

// TestRankUpdateBitIdentical pins the row-order rank-1 update to the column
// sweep it replaced: five successive updates of one factor, L compared bit
// for bit after each, at every tail length of the four-row kernel and at the
// feature backend's m = 256. Factors include one off the jitter ladder and
// one full of exact zeros; the update vectors include one with a zero
// leading half and the zero vector, whose rotations have s = 0 and are
// skipped, one scaled to lose low bits, and one with scattered zeros.
func TestRankUpdateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 256} {
		for _, pm := range pinMatrices(rng, n) {
			got, err := NewCholesky(pm.a)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewCholesky(pm.a)
			if (pm.name == "jittered") != (got.Jitter > 0) {
				t.Fatalf("n=%d %s: jitter %v", n, pm.name, got.Jitter)
			}
			for rep := 0; rep < 5; rep++ {
				v := make([]float64, n)
				for i := range v {
					switch rep {
					case 0:
						v[i] = rng.NormFloat64()
					case 1:
						if i >= n/2 {
							v[i] = rng.NormFloat64()
						}
					case 2:
						v[i] = 1e8 * rng.NormFloat64()
					case 4:
						if i%3 != 1 {
							v[i] = 1e-3 * rng.NormFloat64()
						}
					}
				}
				if err := got.RankUpdate(append([]float64(nil), v...)); err != nil {
					t.Fatal(err)
				}
				refRankUpdate(want, v)
				sameBits(t, fmt.Sprintf("n=%d %s update %d", n, pm.name, rep), got.L, want.L, false)
			}
		}
	}
}

// BenchmarkRankUpdate is one rank-1 update of the feature backend's default
// m = 256 information factor, what a tell on that backend pays per
// observation. Iterations cycle through 16 copies of the factor, 8 MB in all,
// so each update finds its factor out of the core's private caches, as a tell
// does after the acquisition sweep of an ask.
func BenchmarkRankUpdate(b *testing.B) {
	const n, copies = 256, 16
	rng := rand.New(rand.NewSource(35))
	a := randomSPD(rng, n)
	cs := make([]*Cholesky, copies)
	for i := range cs {
		c, err := NewCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = c
	}
	v0, v := make([]float64, n), make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, v0)
		if err := cs[i%copies].RankUpdate(v); err != nil {
			b.Fatal(err)
		}
	}
}

// refSolveLower is forward substitution one row and one side at a time, every
// element through At: the loop SolveLowerInto was before it interleaved rows.
// The solves below must reproduce it bit for bit — predictions, and through
// them every pinned history, stand on these bits.
func refSolveLower(c *Cholesky, b []float64) []float64 {
	y := make([]float64, c.N)
	for i := range y {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.L.At(i, k) * y[k]
		}
		y[i] = s / c.L.At(i, i)
	}
	return y
}

// refSolveUpperT is back substitution as SolveUpperTInto was before its inner
// update went through Axpy: rows swept from the last, each resolved entry's
// multiple subtracted from the pending ones, one element at a time.
func refSolveUpperT(c *Cholesky, y []float64) []float64 {
	x := append([]float64(nil), y...)
	for i := c.N - 1; i >= 0; i-- {
		xi := x[i] / c.L.At(i, i)
		x[i] = xi
		for k := 0; k < i; k++ {
			x[k] -= c.L.At(i, k) * xi
		}
	}
	return x
}

func sameVecBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %x, reference %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// TestSolveLowerMultiBitIdentical is the contract the batched predictors stand on:
// however a forward substitution is interleaved — four rows of one side, one
// row of two, three or four sides, full groups of four and every remainder —
// each side comes out with exactly the bits of the plain loop. Sizes cover
// every tail length of the four-row kernel;
// factors include one off the jitter ladder and one full of exact zeros;
// right-hand sides include one scaled to lose low bits, one sharing another
// slot's values and a zero vector, so a reassociated, reordered or fused sum
// would show. Destinations that do not alias b start as NaN, so an entry read
// before it is written shows too.
func TestSolveLowerMultiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64, 150, 151, 257} {
		for _, pm := range pinMatrices(rng, n) {
			ch, err := NewCholesky(pm.a)
			if err != nil {
				t.Fatal(err)
			}
			if (pm.name == "jittered") != (ch.Jitter > 0) {
				t.Fatalf("n=%d %s: jitter %v", n, pm.name, ch.Jitter)
			}
			for width := 1; width <= 9; width++ {
				what := fmt.Sprintf("n=%d %s width=%d", n, pm.name, width)
				vs := make([][]float64, width)
				want := make([][]float64, width)
				for j := range vs {
					vs[j] = make([]float64, n)
					for i := range vs[j] {
						switch j % 4 {
						case 0:
							vs[j][i] = rng.NormFloat64()
						case 1:
							vs[j][i] = 1e8 * rng.NormFloat64()
						case 2:
							vs[j][i] = vs[0][i] // same values as side 0, other slot
						}
					}
					want[j] = refSolveLower(ch, vs[j])
				}
				// One side at a time, apart from b and in place; then the full solve.
				for j, b := range vs {
					side := fmt.Sprintf("%s side %d", what, j)
					kept := append([]float64(nil), b...)
					dst := nanVec(n)
					ch.SolveLowerInto(dst, b)
					sameVecBits(t, side+": SolveLowerInto", dst, want[j])
					sameVecBits(t, side+": SolveLowerInto's b", b, kept)
					copy(dst, b)
					ch.SolveLowerInto(dst, dst)
					sameVecBits(t, side+": SolveLowerInto in place", dst, want[j])

					full := ch.SolveUpperT(want[j])
					sameVecBits(t, side+": SolveUpperT", full, refSolveUpperT(ch, want[j]))
					dst = nanVec(n)
					ch.SolveInto(dst, b)
					sameVecBits(t, side+": SolveInto", dst, full)
					sameVecBits(t, side+": SolveInto's b", b, kept)
					copy(dst, b)
					ch.SolveInto(dst, dst)
					sameVecBits(t, side+": SolveInto in place", dst, full)
				}
				ch.SolveLowerMulti(vs)
				for j := range vs {
					sameVecBits(t, fmt.Sprintf("%s side %d: SolveLowerMulti", what, j), vs[j], want[j])
				}
			}
		}
	}
}

func TestSolveLowerMultiDimensionMismatch(t *testing.T) {
	ch, err := NewCholesky(randomSPD(rand.New(rand.NewSource(42)), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short right-hand side accepted")
		}
	}()
	ch.SolveLowerMulti([][]float64{make([]float64, 4), make([]float64, 3)})
}

// BenchmarkSolveLowerMulti is the forward substitution at the two sizes the
// repo benchmark ends on — n = 150, the exact backend after bo-opamp's 150
// evaluations, and n = 256, the feature backend's default basis — one to four
// right-hand sides per pass; ns/side is what one more prediction costs at
// that width.
func BenchmarkSolveLowerMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{150, 256} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		for width := 1; width <= 4; width++ {
			rhs := make([][]float64, width)
			vs := make([][]float64, width)
			for j := range vs {
				rhs[j] = make([]float64, n)
				for i := range rhs[j] {
					rhs[j][i] = rng.NormFloat64()
				}
				vs[j] = make([]float64, n)
			}
			b.Run(fmt.Sprintf("n%d/w%d", n, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for j := range vs {
						copy(vs[j], rhs[j])
					}
					ch.SolveLowerMulti(vs)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(width), "ns/side")
			})
		}
	}
}

// refCholesky is NewCholesky as it stood before NewCholeskyInto: a fresh L
// per jitter try, every element through At/Set. The row-slice factorization
// must reproduce it bit for bit — GP histories are pinned on these bits.
func refCholesky(a *Matrix) (*Cholesky, error) {
	n := a.Rows
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	jitter := 0.0
	for try := 0; try <= 10; try++ {
		L, ok := func() (*Matrix, bool) {
			L := NewMatrix(n, n)
			for j := 0; j < n; j++ {
				d := a.At(j, j) + jitter
				for k := 0; k < j; k++ {
					ljk := L.At(j, k)
					d -= ljk * ljk
				}
				if d <= 0 || math.IsNaN(d) {
					return nil, false
				}
				ljj := math.Sqrt(d)
				L.Set(j, j, ljj)
				for i := j + 1; i < n; i++ {
					s := a.At(i, j)
					for k := 0; k < j; k++ {
						s -= L.At(i, k) * L.At(j, k)
					}
					L.Set(i, j, s/ljj)
				}
			}
			return L, true
		}()
		if ok {
			return &Cholesky{L: L, N: n, Jitter: jitter}, nil
		}
		if jitter == 0 {
			jitter = 1e-12 * scale
		} else {
			jitter *= 10
		}
	}
	return nil, ErrNotPositiveDefinite
}

// refInverse is Cholesky.Inverse as it stood before InverseUpperInto: plain
// element loops, fresh matrices, both triangles.
func refInverse(c *Cholesky) *Matrix {
	n := c.N
	g := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		lrow := c.L.Row(i)
		grow := g.Row(i)
		grow[i] = 1
		for k := 0; k < i; k++ {
			coef := lrow[k]
			if coef == 0 {
				continue
			}
			gk := g.Row(k)[: k+1 : k+1]
			for j, gkj := range gk {
				grow[j] -= coef * gkj
			}
		}
		inv := 1 / lrow[i]
		for j := 0; j <= i; j++ {
			grow[j] *= inv
		}
	}
	out := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		gk := g.Row(k)[: k+1 : k+1]
		for i, gki := range gk {
			if gki == 0 {
				continue
			}
			orow := out.Row(i)
			for j := i; j <= k; j++ {
				orow[j] += gki * gk[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for j := i + 1; j < n; j++ {
			out.Set(j, i, orow[j])
		}
	}
	return out
}

// pinMatrices returns, for one size, the inputs the bit-identity pins run
// on: a well-conditioned SPD matrix, a rank-deficient Gram matrix that only
// factors on the jitter ladder, and a block-diagonal one whose factor and
// inverse are full of exact zeros (the coef == 0 / gki == 0 skips).
func pinMatrices(rng *rand.Rand, n int) []pinMatrix {
	low := randomMatrix(rng, n, n/2)
	blocks := randomSPD(rng, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i/3 != j/3 {
				blocks.Set(i, j, 0)
			}
		}
	}
	return []pinMatrix{
		{"plain", randomSPD(rng, n)},
		{"jittered", low.Mul(low.T())},
		{"blocks", blocks},
	}
}

type pinMatrix struct {
	name string
	a    *Matrix
}

func sameBits(t *testing.T, what string, got, want *Matrix, upperOnly bool) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if upperOnly && j < i {
				continue
			}
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: (%d,%d) = %x, reference %x", what, i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// TestNewCholeskyIntoBitIdentical pins the row-slice factorization — fresh
// and into a reused, previously-failed-into destination — against the
// At/Set one it replaced, jitter included, and checks the input survives.
func TestNewCholeskyIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 3, 7, 64, 151} {
		reused := &Cholesky{}
		for _, pm := range pinMatrices(rng, n) {
			name, a := pm.name, pm.a
			what := fmt.Sprintf("n=%d %s", n, name)
			want, err := refCholesky(a)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if (name == "jittered") != (want.Jitter > 0) {
				t.Fatalf("%s: jitter %v", what, want.Jitter)
			}
			before := &Matrix{Rows: a.Rows, Cols: a.Cols, Data: append([]float64(nil), a.Data...)}
			got, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := NewCholeskyInto(reused, a); err != nil {
				t.Fatalf("%s: reused: %v", what, err)
			}
			sameBits(t, what+": input", a, before, false)
			for _, c := range []*Cholesky{got, reused} {
				if c.N != n || math.Float64bits(c.Jitter) != math.Float64bits(want.Jitter) {
					t.Fatalf("%s: N=%d jitter=%v, reference N=%d jitter=%v", what, c.N, c.Jitter, n, want.Jitter)
				}
				sameBits(t, what+": L", c.L, want.L, false)
			}
		}
	}
	// A failed factorization leaves garbage below the diagonal only; the next
	// success into the same storage is still the reference factor.
	c := &Cholesky{}
	if err := NewCholeskyInto(c, NewMatrixFromRows([][]float64{{1, 0}, {0, -5}})); err == nil {
		t.Fatal("indefinite matrix factored")
	}
	a := randomSPD(rng, 2)
	if err := NewCholeskyInto(c, a); err != nil {
		t.Fatal(err)
	}
	want, _ := refCholesky(a)
	sameBits(t, "after failure", c.L, want.L, false)
}

// TestInverseUpperIntoBitIdentical pins the unrolled, upper-triangle-only,
// scratch-reusing inverse against the element loops it replaced, and Inverse
// (now that plus the mirror) with it. The destinations start full of NaN so
// a cell the routine should have cleared, or should not have touched, shows.
func TestInverseUpperIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 2, 3, 7, 64, 151} {
		out, g := NewMatrix(n, n), NewMatrix(n, n)
		for _, pm := range pinMatrices(rng, n) {
			name, a := pm.name, pm.a
			what := fmt.Sprintf("n=%d %s", n, name)
			c, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want := refInverse(c)
			for i := range out.Data {
				out.Data[i], g.Data[i] = math.NaN(), math.NaN()
			}
			c.InverseUpperInto(out, g)
			sameBits(t, what+": upper", out, want, true)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if !math.IsNaN(out.At(i, j)) || !math.IsNaN(g.At(j, i)) {
						t.Fatalf("%s: wrote outside its triangle at (%d,%d)", what, i, j)
					}
				}
			}
			sameBits(t, what+": Inverse", c.Inverse(), want, false)
		}
	}
}

// BenchmarkCholeskyInverse is the upper-triangle inverse into scratch at the
// training-set sizes a hyperparameter refit meets; it is a third of every
// Adam step of gp.FitHyper.
func BenchmarkCholeskyInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{60, 150} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		out, g := NewMatrix(n, n), NewMatrix(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.InverseUpperInto(out, g)
			}
		})
	}
}
