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
	if !almostEq(ch.Row(0)[0], 2, 1e-14) || !almostEq(ch.Row(1)[0], 1, 1e-14) ||
		!almostEq(ch.Row(1)[1], math.Sqrt2, 1e-14) {
		t.Fatalf("wrong factor:\n%v", lower(ch))
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
		L := lower(ch)
		llt := L.Mul(L.T())
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
					if !almostEq(got.Row(i)[j], want.Row(i)[j], 1e-12) {
						t.Fatalf("n=%d k=%d: L(%d,%d) = %v want %v", n, k, i, j, got.Row(i)[j], want.Row(i)[j])
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
			if !almostEq(got.Row(i)[j], want.Row(i)[j], 1e-12) {
				t.Fatalf("L(%d,%d) = %v want %v", i, j, got.Row(i)[j], want.Row(i)[j])
			}
		}
	}
	// The appended factor must reconstruct the jittered matrix.
	L := lower(got)
	llt := L.Mul(L.T())
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

// packLower is a's lower triangle packed by rows with jitter added to the
// diagonal: what the in-place factorization takes.
func packLower(a *Matrix, jitter float64) []float64 {
	tri := make([]float64, 0, packedLen(a.Rows))
	for i := 0; i < a.Rows; i++ {
		tri = append(tri, a.Row(i)[:i+1]...)
		tri[len(tri)-1] += jitter
	}
	return tri
}

// factorAt is the from-scratch factor of a + jitter·I at that one jitter,
// with no ladder: what an Append at that jitter must reproduce bit for bit.
func factorAt(t *testing.T, a *Matrix, jitter float64) *Cholesky {
	t.Helper()
	c := &Cholesky{N: a.Rows, Jitter: jitter, tri: packLower(a, jitter)}
	if !c.factor() {
		t.Fatalf("n=%d: not positive definite at jitter %v", a.Rows, jitter)
	}
	return c
}

// appendRows is what Append takes to grow a factor of a's leading n×n block
// to its leading (n+k)×(n+k) one: the new rows left of the diagonal, and the
// diagonal.
func appendRows(a *Matrix, n, k int) (rows [][]float64, diag []float64) {
	for i := n; i < n+k; i++ {
		rows = append(rows, append([]float64(nil), a.Row(i)[:i]...))
		diag = append(diag, a.At(i, i))
	}
	return rows, diag
}

// TestCholeskyAppendInPlaceBitIdentical is the contract the exact GP's every
// tell stands on: a factor grown by Append, one point at a time or several,
// is bit for bit the from-scratch factor of the grown matrix at the same
// jitter, and the last is NewCholesky's of the whole matrix. The inputs are
// a plain one, a block-zero one and a rank-deficient one, whose chain runs
// on the rung of the jitter ladder the whole matrix needs. The chains start
// from half the size and from nothing, so they cross several reallocations; an append that fits in the capacity the
// last one left must write in place, and none may touch the rows it was
// given.
func TestCholeskyAppendInPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 3, 7, 64, 151} {
		for _, pm := range pinMatrices(rng, n) {
			full, err := NewCholesky(pm.a)
			if err != nil {
				t.Fatal(err)
			}
			for _, n0 := range []int{n / 2, 0} {
				for _, step := range []int{1, 3} {
					what := fmt.Sprintf("n=%d %s from %d by %d", n, pm.name, n0, step)
					c, err := NewCholesky(leadingBlock(pm.a, n0))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if pm.name == "jittered" {
						// Its leading blocks need a lower rung or none; the
						// chain starts on the one the whole matrix needs.
						c = factorAt(t, leadingBlock(pm.a, n0), full.Jitter)
					}
					inPlace, moved := 0, 0
					for m := n0; m < n; m += step {
						k := min(step, n-m)
						before := packed(lower(c), c.Jitter)
						rows, diag := appendRows(pm.a, m, k)
						next, err := c.Append(rows, diag)
						if err != nil {
							t.Fatalf("%s: append at %d: %v", what, m, err)
						}
						sameFactor(t, fmt.Sprintf("%s: receiver after append at %d", what, m), c, before)
						sameFactor(t, fmt.Sprintf("%s: append at %d", what, m), next,
							factorAt(t, leadingBlock(pm.a, m+k), c.Jitter))
						if m > 0 {
							if &next.tri[0] == &c.tri[0] {
								inPlace++
							} else if cap(c.tri) >= packedLen(m+k) {
								t.Fatalf("%s: append at %d reallocated with capacity to spare", what, m)
							} else {
								moved++
							}
						}
						c = next
					}
					sameFactor(t, what+": NewCholesky", c, full)
					if n >= 64 && (inPlace == 0 || moved < 2) {
						t.Fatalf("%s: %d appends in place, %d reallocations", what, inPlace, moved)
					}
				}
			}
		}
	}
}

// TestCholeskyAppendFailureLeavesReceiver: an append that loses positive
// definiteness has written into the receiver's spare capacity, but leaves
// its rows and N as they were, and the next append from it is still the
// from-scratch factor's bits.
func TestCholeskyAppendFailureLeavesReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := randomSPD(rng, 40)
	c, err := NewCholesky(leadingBlock(a, 20))
	if err != nil {
		t.Fatal(err)
	}
	rows, diag := appendRows(a, 20, 1)
	if c, err = c.Append(rows, diag); err != nil { // leaves spare capacity
		t.Fatal(err)
	}
	before := packed(lower(c), c.Jitter)
	bad := make([]float64, 21)
	bad[3] = 1e9
	rows, diag = appendRows(a, 21, 3)
	if _, err := c.Append([][]float64{rows[0], append(bad, 0), rows[2]}, []float64{diag[0], 1e-12, diag[2]}); err == nil {
		t.Fatal("indefinite extension accepted")
	}
	sameFactor(t, "receiver after a failed append", c, before)
	got, err := c.Append(rows, diag)
	if err != nil {
		t.Fatal(err)
	}
	sameFactor(t, "append after a failed append", got, factorAt(t, leadingBlock(a, 24), 0))
}

// BenchmarkCholeskyAppend is one point appended to the factor of a 150×150
// SPD matrix — the exact GP's tell at bo-opamp's final size — with capacity
// to spare, as a chain of tells leaves it most of the time: B/op is what
// the append allocates beyond the row it writes. Every iteration appends row
// 150 to the same factor again, which is allowed only because each result
// is dropped before the next overwrites its row.
func BenchmarkCholeskyAppend(b *testing.B) {
	const n = 150
	a := randomSPD(rand.New(rand.NewSource(26)), n+1)
	c, err := NewCholesky(leadingBlock(a, n-1))
	if err != nil {
		b.Fatal(err)
	}
	if c, err = c.Append(appendRows(a, n-1, 1)); err != nil {
		b.Fatal(err)
	}
	rows, diag := appendRows(a, n, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Append(rows, diag); err != nil {
			b.Fatal(err)
		}
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
		ly := lower(ch).MulVec(y)
		for i := range b {
			if !almostEq(ly[i], b[i], 1e-9) {
				t.Fatalf("n=%d: L·y != b at %d", n, i)
			}
		}
		x := make([]float64, n)
		ch.SolveUpperTInto(x, y)
		ltx := lower(ch).T().MulVec(x)
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
			if err := ch.RankUpdate(append([]float64(nil), v...), make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			want, err := NewCholesky(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					if !almostEq(ch.Row(i)[j], want.Row(i)[j], 1e-8) {
						t.Fatalf("n=%d rep=%d: L(%d,%d) = %v, refactorization %v",
							n, rep, i, j, ch.Row(i)[j], want.Row(i)[j])
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
	if err := ch.RankUpdate(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("short update vector must be rejected")
	}
	if err := ch.RankUpdate(make([]float64, 4), make([]float64, 3)); err == nil {
		t.Fatal("short cosine scratch must be rejected")
	}
}

// refRankUpdate is RankUpdate as it stood before it went row by row: the
// textbook cholupdate, each rotation carried down its column one entry at a
// time. RankUpdate must reproduce it bit for bit — the feature backend's every
// tell, and through it the serve-model history, stands on these bits.
func refRankUpdate(c *Cholesky, v []float64) {
	for k := 0; k < c.N; k++ {
		lkk := c.Row(k)[k]
		r := math.Hypot(lkk, v[k])
		cc := r / lkk
		s := v[k] / lkk
		c.Row(k)[k] = r
		if s == 0 {
			continue
		}
		for i := k + 1; i < c.N; i++ {
			lik := (c.Row(i)[k] + s*v[i]) / cc
			v[i] = cc*v[i] - s*lik
			c.Row(i)[k] = lik
		}
	}
}

// TestRankUpdateBitIdentical pins the row-order rank-1 update to the column
// sweep it replaced: five successive updates of one factor, L compared bit
// for bit after each, at every tail length of the four-row kernel and at the
// feature backend's m = 256. Factors include one off the jitter ladder and
// one full of exact zeros; the update vectors include one with a zero
// leading half and the zero vector, whose rotations have s = 0 and are
// skipped, one scaled to lose low bits, and one with scattered zeros. The
// cosine scratch is one buffer across the updates and starts full of NaN,
// so a cosine read before it is written shows.
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
			cs := make([]float64, n)
			for i := range cs {
				cs[i] = math.NaN()
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
				if err := got.RankUpdate(append([]float64(nil), v...), cs); err != nil {
					t.Fatal(err)
				}
				refRankUpdate(want, v)
				sameFactor(t, fmt.Sprintf("n=%d %s update %d", n, pm.name, rep), got, want)
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
	v0, v, cos := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range v0 {
		v0[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(v, v0)
		if err := cs[i%copies].RankUpdate(v, cos); err != nil {
			b.Fatal(err)
		}
	}
}

// refSolveLower is forward substitution one row and one side at a time, every
// element on its own: the loop SolveLowerInto was before it interleaved rows.
// The solves below must reproduce it bit for bit — predictions, and through
// them every pinned history, stand on these bits.
func refSolveLower(c *Cholesky, b []float64) []float64 {
	y := make([]float64, c.N)
	for i := range y {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.Row(i)[k] * y[k]
		}
		y[i] = s / c.Row(i)[i]
	}
	return y
}

// refSolveUpperT is back substitution one row at a time: rows swept from the
// last, each resolved entry's multiple subtracted from the pending ones, one
// element at a time. SolveUpperTInto interleaves four rows and must
// reproduce it bit for bit.
func refSolveUpperT(c *Cholesky, y []float64) []float64 {
	x := append([]float64(nil), y...)
	for i := c.N - 1; i >= 0; i-- {
		xi := x[i] / c.Row(i)[i]
		x[i] = xi
		for k := 0; k < i; k++ {
			x[k] -= c.Row(i)[k] * xi
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
// each side comes out with exactly the bits of the plain loop, and so does
// the four-row back substitution, apart from y and in place. Sizes cover
// every tail length of the four-row kernels;
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

					full := nanVec(n)
					ch.SolveUpperTInto(full, want[j])
					sameVecBits(t, side+": SolveUpperTInto", full, refSolveUpperT(ch, want[j]))
					copy(dst, want[j])
					ch.SolveUpperTInto(dst, dst)
					sameVecBits(t, side+": SolveUpperTInto in place", dst, full)
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

// BenchmarkSolveUpperT is the back substitution at the sizes of
// BenchmarkSolveLowerMulti: the second solve of every feature-backend
// gradient (n = 256) and of an exact-GP gradient or busy-set condition at
// n = 150.
func BenchmarkSolveUpperT(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{150, 256} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		y, x := make([]float64, n), make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ch.SolveUpperTInto(x, y)
			}
		})
	}
}

// refCholesky is NewCholesky as it stood before NewCholeskyInto: a fresh L
// per jitter try, every element through At/Set. The row-slice factorization
// must reproduce it bit for bit — GP histories are pinned on these bits. It
// also returns every jitter it tried, the last the one that factored.
func refCholesky(a *Matrix) (*Cholesky, []float64, error) {
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	var tried []float64
	jitter := 0.0
	for try := 0; try <= 10; try++ {
		tried = append(tried, jitter)
		if c := refFactorAt(a, jitter); c != nil {
			return c, tried, nil
		}
		if jitter == 0 {
			jitter = 1e-12 * scale
		} else {
			jitter *= 10
		}
	}
	return nil, tried, ErrNotPositiveDefinite
}

// refFactorAt is one try of refCholesky: the factor of a + jitter·I, nil at
// a non-positive pivot.
func refFactorAt(a *Matrix, jitter float64) *Cholesky {
	n := a.Rows
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + jitter
		for k := 0; k < j; k++ {
			ljk := L.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil
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
	return packed(L, jitter)
}

// refInverse is Cholesky.Inverse as it stood before InverseUpperInto: plain
// element loops, fresh matrices, both triangles. It also returns the G = L⁻¹
// it went through (lower triangle, zero above).
func refInverse(c *Cholesky) (inv, g *Matrix) {
	n := c.N
	g = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		lrow := c.Row(i)
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
	return out, g
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

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: (%d,%d) = %x, reference %x", what, i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// lower returns c's factor as a dense n×n matrix, zero above the diagonal.
func lower(c *Cholesky) *Matrix {
	L := NewMatrix(c.N, c.N)
	for i := 0; i < c.N; i++ {
		copy(L.Row(i), c.Row(i))
	}
	return L
}

// packed is the factor whose rows are the lower triangle of the dense L.
func packed(L *Matrix, jitter float64) *Cholesky {
	c := &Cholesky{N: L.Rows, Jitter: jitter, tri: make([]float64, packedLen(L.Rows))}
	for i := 0; i < c.N; i++ {
		copy(c.Row(i), L.Row(i)[:i+1])
	}
	return c
}

// sameFactor compares two factors' sizes, jitters and every stored entry,
// bit for bit.
func sameFactor(t *testing.T, what string, got, want *Cholesky) {
	t.Helper()
	if got.N != want.N || math.Float64bits(got.Jitter) != math.Float64bits(want.Jitter) {
		t.Fatalf("%s: N=%d jitter=%v, reference N=%d jitter=%v", what, got.N, got.Jitter, want.N, want.Jitter)
	}
	for i := 0; i < want.N; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: L(%d,%d) = %x, reference %x", what, i, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}
}

// TestNewCholeskyIntoBitIdentical pins both entries to the one in-place
// kernel — NewCholeskyInto, which packs a dense matrix's lower triangle, and
// NewCholeskyPacked, which factors a triangle its caller assembled packed —
// against the At/Set factorization they replaced, bit for bit. The dense
// entry runs the whole jitter ladder, fresh and into a reused,
// previously-failed-into destination, and leaves its input as it was. The
// packed entry runs at every rung the reference tried, the input packed with
// that rung's jitter: each rung the reference failed fails, the one it
// stopped at gives its factor. Besides the pin matrices, "escalated" is a
// singular Gram matrix shifted down by 10⁻⁹ of its scale, which only
// factors several rungs up the ladder.
func TestNewCholeskyIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 2, 3, 5, 7, 8, 61, 64, 151} {
		reused := &Cholesky{}
		pms := pinMatrices(rng, n)
		if n > 1 {
			low := randomMatrix(rng, n, n/2)
			esc := low.Mul(low.T())
			shift := 1e-9 * esc.MaxAbsDiag()
			for i := 0; i < n; i++ {
				esc.Add(i, i, -shift)
			}
			pms = append(pms, pinMatrix{"escalated", esc})
		}
		for _, pm := range pms {
			name, a := pm.name, pm.a
			what := fmt.Sprintf("n=%d %s", n, name)
			want, tried, err := refCholesky(a)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			switch {
			case (name == "jittered" || name == "escalated") != (want.Jitter > 0):
				t.Fatalf("%s: jitter %v", what, want.Jitter)
			case name == "escalated" && len(tried) < 4:
				t.Fatalf("%s: factored at rung %d of the ladder, want a climb of three or more", what, len(tried)-1)
			}
			before := &Matrix{Rows: a.Rows, Cols: a.Cols, Data: append([]float64(nil), a.Data...)}
			got, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := NewCholeskyInto(reused, a); err != nil {
				t.Fatalf("%s: reused: %v", what, err)
			}
			sameBits(t, what+": input", a, before)
			for _, c := range []*Cholesky{got, reused} {
				sameFactor(t, what, c, want)
			}
			for rung, jitter := range tried {
				c, err := NewCholeskyPacked(n, packLower(a, jitter))
				if last := rung == len(tried)-1; !last {
					if err != ErrNotPositiveDefinite {
						t.Fatalf("%s: packed at rung %d (jitter %v): %v, the reference failed there", what, rung, jitter, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: packed at rung %d (jitter %v): %v", what, rung, jitter, err)
				}
				c.Jitter = jitter
				sameFactor(t, what+" packed", c, want)
			}
		}
	}
	if _, err := NewCholeskyPacked(3, make([]float64, 5)); err != ErrDimension {
		t.Fatalf("packed triangle of the wrong length: %v", err)
	}
	// A failed factorization leaves garbage in the rows; the next success into
	// the same storage is still the reference factor.
	c := &Cholesky{}
	if err := NewCholeskyInto(c, NewMatrixFromRows([][]float64{{1, 0}, {0, -5}})); err == nil {
		t.Fatal("indefinite matrix factored")
	}
	a := randomSPD(rng, 2)
	if err := NewCholeskyInto(c, a); err != nil {
		t.Fatal(err)
	}
	want, _, _ := refCholesky(a)
	sameFactor(t, "after failure", c, want)
	// A smaller factor goes into the storage a larger one left.
	big, small := randomSPD(rng, 151), randomSPD(rng, 64)
	if err := NewCholeskyInto(c, big); err != nil {
		t.Fatal(err)
	}
	at := &c.tri[0]
	if err := NewCholeskyInto(c, small); err != nil {
		t.Fatal(err)
	}
	if &c.tri[0] != at {
		t.Fatal("NewCholeskyInto reallocated storage that held a larger factor")
	}
	want, _, _ = refCholesky(small)
	sameFactor(t, "into larger storage", c, want)
}

// TestInverseUpperIntoBitIdentical pins the four-rows-at-a-time,
// packed-output, scratch-reusing inverse against the element loops it
// replaced — the packed upper triangle of A⁻¹ and the G = L⁻¹ left in the
// scratch's lower triangle — and Inverse (that plus the mirror) with it.
// The sizes cover every remainder of the four-row groups; the block matrix
// and the overflowing factor put a zero beside nonzeros inside a group of
// both passes, so the row-by-row fallback runs, and in the second one the
// zero meets an infinite G, so a fallback that added 0·∞ instead of
// skipping shows as NaN. Both destinations start full of NaN, so a cell
// the routine should have cleared shows, and the scratch's strict upper
// triangle must come back NaN: a caller keeps data there (gp's training
// workspace keeps K's upper triangle).
func TestInverseUpperIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64, 151} {
		out, g := make([]float64, packedLen(n)), NewMatrix(n, n)
		type factor struct {
			name string
			c    *Cholesky
		}
		factors := []factor{{"overflow", overflowFactor(n)}}
		for _, pm := range pinMatrices(rng, n) {
			c, err := NewCholesky(pm.a)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, pm.name, err)
			}
			factors = append(factors, factor{pm.name, c})
		}
		for _, f := range factors {
			name, c := f.name, f.c
			what := fmt.Sprintf("n=%d %s", n, name)
			want, wantG := refInverse(c)
			for i := range out {
				out[i] = math.NaN()
			}
			for i := range g.Data {
				g.Data[i] = math.NaN()
			}
			c.InverseUpperInto(out, g)
			off := 0
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if got, w := out[off], want.At(i, j); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: A⁻¹(%d,%d) = %x, reference %x", what, i, j, math.Float64bits(got), math.Float64bits(w))
					}
					off++
				}
				for j := 0; j < n; j++ {
					got, w := g.At(i, j), wantG.At(i, j)
					if j > i {
						if !math.IsNaN(got) {
							t.Fatalf("%s: wrote the scratch's upper triangle at (%d,%d)", what, i, j)
						}
					} else if math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s: G(%d,%d) = %x, reference %x", what, i, j, math.Float64bits(got), math.Float64bits(w))
					}
				}
			}
			sameBits(t, what+": Inverse", c.Inverse(), want)
			if (name == "blocks" || name == "overflow") && n >= 8 {
				first, second := mixedGroups(c, wantG)
				if !first || !second {
					t.Fatalf("%s: a zero beside nonzeros in a four-row group: first pass %v, second %v", what, first, second)
				}
			}
		}
	}
}

// overflowFactor is a unit lower-bidiagonal factor in blocks of five rows,
// −1e200 below the diagonal inside a block and 0 between blocks: G = L⁻¹ is
// block-diagonal with entries 1e200^(i−j), +Inf two rows below the diagonal
// and further, and A⁻¹ = GᵀG is finite or +Inf, never NaN, when every zero
// coefficient is skipped.
func overflowFactor(n int) *Cholesky {
	c := &Cholesky{N: n, tri: make([]float64, packedLen(n))}
	for i := 0; i < n; i++ {
		row := c.Row(i)
		row[i] = 1
		if i%5 != 0 {
			row[i-1] = -1e200
		}
	}
	return c
}

// mixedGroups reports whether some four-row group of InverseUpperInto's
// first pass (coefficients L[i][k…k+3], k+3 < i) and of its second
// (G[k…k+3][i], i ≤ k) holds a zero and a nonzero: a group that must go
// row by row.
func mixedGroups(c *Cholesky, g *Matrix) (first, second bool) {
	mixed := func(v [4]float64) bool {
		zeros := 0
		for _, x := range v {
			if x == 0 {
				zeros++
			}
		}
		return zeros > 0 && zeros < 4
	}
	for i := 0; i < c.N; i++ {
		for k := 0; k+4 <= i; k += 4 {
			l := c.Row(i)
			first = first || mixed([4]float64{l[k], l[k+1], l[k+2], l[k+3]})
		}
	}
	for k := 0; k+4 <= c.N; k += 4 {
		for i := 0; i <= k; i++ {
			second = second || mixed([4]float64{g.At(k, i), g.At(k+1, i), g.At(k+2, i), g.At(k+3, i)})
		}
	}
	return first, second
}

// BenchmarkCholeskyInverse is the packed upper-triangle inverse into
// scratch at the training-set sizes a hyperparameter refit meets; it is
// about half of every Adam step of gp.FitHyper (DESIGN.md §13.1).
func BenchmarkCholeskyInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{60, 150} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		out, g := make([]float64, packedLen(n)), NewMatrix(n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.InverseUpperInto(out, g)
			}
		})
	}
}

// BenchmarkNewCholeskyInto is one factorization into reused storage at the
// sizes the exact GP's fits run at (n = 60, 150) and at the feature
// backend's m = 256: the pack of A's lower triangle and the in-place kernel.
func BenchmarkNewCholeskyInto(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{60, 150, 256} {
		a := randomSPD(rng, n)
		c := &Cholesky{}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewCholeskyInto(c, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
