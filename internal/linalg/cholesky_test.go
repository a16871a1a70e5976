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

func TestCholeskyCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ch, err := NewCholesky(randomSPD(rng, 6))
	if err != nil {
		t.Fatal(err)
	}
	cl := ch.Clone()
	v := make([]float64, 6)
	v[0] = 1
	if err := cl.RankUpdate(v); err != nil {
		t.Fatal(err)
	}
	if cl.L.At(0, 0) == ch.L.At(0, 0) {
		t.Fatal("updating the clone mutated nothing")
	}
	// The original must be untouched by the clone's update.
	orig, err := NewCholesky(randomSPD(rand.New(rand.NewSource(33)), 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			if ch.L.At(i, j) != orig.L.At(i, j) {
				t.Fatalf("clone update leaked into the original at (%d,%d)", i, j)
			}
		}
	}
}

// TestSolveLowerMultiBitIdentical is the contract the batched predictors
// stand on: whatever number of right-hand sides are solved together — every
// kernel width, full groups of four and every remainder — each side comes
// out with exactly the bits SolveLowerInto gives it alone. Right-hand sides
// include one shared between two slots' worth of values, a zero vector and
// entries large enough to lose low bits, so a reassociated or fused sum
// would show.
func TestSolveLowerMultiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 5, 64, 257} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for width := 1; width <= 9; width++ {
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
				want[j] = ch.SolveLower(vs[j])
			}
			ch.SolveLowerMulti(vs)
			for j := range vs {
				for i := range vs[j] {
					if math.Float64bits(vs[j][i]) != math.Float64bits(want[j][i]) {
						t.Fatalf("n=%d width=%d: side %d entry %d = %x, alone %x",
							n, width, j, i, math.Float64bits(vs[j][i]), math.Float64bits(want[j][i]))
					}
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

// BenchmarkSolveLowerMulti is the forward substitution at the feature
// backend's default basis size, one to four right-hand sides per pass;
// ns/side is what one more prediction costs at that width.
func BenchmarkSolveLowerMulti(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(43))
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
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
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
