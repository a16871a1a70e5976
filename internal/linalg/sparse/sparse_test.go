package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"easybo/internal/linalg"
)

// randomSystem builds a random sparse, diagonally-weighted n×n system with
// the given off-diagonal density and returns the builder slots so values
// can be re-stamped.
func randomSystem(n int, density float64, rng *rand.Rand) (*Builder, []int32, [][2]int) {
	b := NewBuilder(n)
	var coords [][2]int
	var slots []int32
	for i := 0; i < n; i++ {
		slots = append(slots, b.Slot(i, i))
		coords = append(coords, [2]int{i, i})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				slots = append(slots, b.Slot(i, j))
				coords = append(coords, [2]int{i, j})
			}
		}
	}
	return b, slots, coords
}

// randScalar draws a standard normal value: one draw for float64, real and
// imaginary part for complex128.
func randScalar[T Scalar](rng *rand.Rand) T {
	var v T
	switch p := any(&v).(type) {
	case *float64:
		*p = rng.NormFloat64()
	case *complex128:
		*p = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

// randVals draws one value per slot, diagonal entries shifted by diag to
// keep the system comfortably nonsingular.
func randVals[T Scalar](coords [][2]int, diag T, rng *rand.Rand) []T {
	vals := make([]T, len(coords))
	for k := range vals {
		vals[k] = randScalar[T](rng)
		if coords[k][0] == coords[k][1] {
			vals[k] += diag
		}
	}
	return vals
}

func randVec[T Scalar](n int, rng *rand.Rand) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = randScalar[T](rng)
	}
	return v
}

func stamp[T Scalar](m *MatrixOf[T], remap, slots []int32, vals []T) {
	m.Zero()
	for k, s := range slots {
		m.Val[remap[s]] += vals[k]
	}
}

// denseSolve is the oracle: the same system assembled densely and solved by
// the dense partial-pivoting LU of the parent package.
func denseSolve[T Scalar](n int, coords [][2]int, vals, rhs []T) ([]T, error) {
	d := make([]T, n*n)
	for k, c := range coords {
		d[c[0]*n+c[1]] += vals[k]
	}
	x := make([]T, n)
	return x, linalg.SolveLU(d, rhs, x)
}

// wantClose fails unless got[i] is within tol·(1+|want[i]|) of want[i].
func wantClose[T Scalar](t *testing.T, what string, got, want []T, tol float64) {
	t.Helper()
	for i := range got {
		if pivotMag(got[i]-want[i]) > tol*(1+pivotMag(want[i])) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// bothScalars runs one generic test body on each instantiation.
func bothScalars(t *testing.T, real, cplx func(*testing.T)) {
	t.Run("float64", real)
	t.Run("complex128", cplx)
}

func factorSolveMatchesDense[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 13, 40} {
		for trial := 0; trial < 5; trial++ {
			b, slots, coords := randomSystem(n, 0.25, rng)
			m, remap := build[T](b)
			vals := randVals[T](coords, 4, rng)
			stamp(m, remap, slots, vals)
			rhs := randVec[T](n, rng)
			lu := &LUOf[T]{}
			if err := lu.Factor(m); err != nil {
				t.Fatalf("n=%d: Factor: %v", n, err)
			}
			x := make([]T, n)
			lu.Solve(rhs, x)
			want, err := denseSolve(n, coords, vals, rhs)
			if err != nil {
				t.Fatalf("dense solve: %v", err)
			}
			wantClose(t, "x", x, want, 1e-10)
			// Residual check too: ||Ax-b|| small.
			y := make([]T, n)
			m.MulVec(x, y)
			wantClose(t, "A·x", y, rhs, 1e-9)
		}
	}
}

func TestFactorSolveMatchesDense(t *testing.T) {
	t.Run("float64", factorSolveMatchesDense[float64])
}

func TestComplexFactorSolveMatchesDense(t *testing.T) {
	t.Run("complex128", factorSolveMatchesDense[complex128])
}

func refactorMatchesFactor[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := build[T](b)
	vals := randVals[T](coords, 4, rng)
	stamp(m, remap, slots, vals)
	lu := &LUOf[T]{}
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	x1 := make([]T, n)
	x2 := make([]T, n)
	for trial := 0; trial < 10; trial++ {
		// Perturb values mildly (same sign structure) and compare the
		// refactor path against a fresh full factorization.
		for k := range vals {
			vals[k] *= 1 + 0.05*randScalar[T](rng)
		}
		stamp(m, remap, slots, vals)
		rhs := randVec[T](n, rng)
		if err := lu.Refactor(m); err != nil {
			t.Fatalf("trial %d: Refactor: %v", trial, err)
		}
		lu.Solve(rhs, x1)
		fresh := &LUOf[T]{}
		if err := fresh.Factor(m); err != nil {
			t.Fatal(err)
		}
		fresh.Solve(rhs, x2)
		wantClose(t, "refactor vs factor", x1, x2, 1e-9)
	}
}

func TestRefactorMatchesFactor(t *testing.T) {
	bothScalars(t, refactorMatchesFactor[float64], refactorMatchesFactor[complex128])
}

// refactorFromMatchesRefactor pins what a partial refactorization promises:
// with the changed columns ordered last, redoing only the steps from the
// first of them leaves the same bits as redoing every step.
func refactorFromMatchesRefactor[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 20
	hot := []int32{3, 11, 17}
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := build[T](b)
	vals := randVals[T](coords, 4, rng)
	stamp(m, remap, slots, vals)
	partial, full := &LUOf[T]{}, &LUOf[T]{}
	for _, lu := range []*LUOf[T]{partial, full} {
		lu.PreferLast(hot)
		if err := lu.Factor(m); err != nil {
			t.Fatal(err)
		}
	}
	from := n
	isHot := make([]bool, n)
	for _, c := range hot {
		isHot[c] = true
		if p := int(partial.ColPos(c)); p < from {
			from = p
		}
	}
	if from != n-len(hot) {
		t.Fatalf("hot columns start at step %d, want the last %d of %d", from, len(hot), n)
	}
	x1 := make([]T, n)
	x2 := make([]T, n)
	for trial := 0; trial < 5; trial++ {
		for k, c := range coords {
			if isHot[c[1]] {
				vals[k] *= 1 + 0.05*randScalar[T](rng)
			}
		}
		stamp(m, remap, slots, vals)
		rhs := randVec[T](n, rng)
		if err := partial.RefactorFrom(m, from); err != nil {
			t.Fatalf("trial %d: RefactorFrom: %v", trial, err)
		}
		if err := full.Refactor(m); err != nil {
			t.Fatalf("trial %d: Refactor: %v", trial, err)
		}
		partial.Solve(rhs, x1)
		full.Solve(rhs, x2)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("trial %d: partial x[%d]=%v, full %v", trial, i, x1[i], x2[i])
			}
		}
		want, err := denseSolve(n, coords, vals, rhs)
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, "partial refactor vs dense", x1, want, 1e-9)
	}
}

func TestRefactorFromMatchesRefactor(t *testing.T) {
	bothScalars(t, refactorFromMatchesRefactor[float64], refactorFromMatchesRefactor[complex128])
}

func refactorZeroAlloc[T Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 15
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := build[T](b)
	stamp(m, remap, slots, randVals[T](coords, 4, rng))
	lu := &LUOf[T]{}
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	rhs := make([]T, n)
	x := make([]T, n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := lu.Refactor(m); err != nil {
			t.Fatal(err)
		}
		lu.Solve(rhs, x)
	})
	if allocs != 0 {
		t.Fatalf("Refactor+Solve allocated %.1f/op, want 0", allocs)
	}
}

func TestRefactorZeroAlloc(t *testing.T) {
	t.Run("float64", refactorZeroAlloc[float64])
}

func TestComplexRefactorZeroAlloc(t *testing.T) {
	t.Run("complex128", refactorZeroAlloc[complex128])
}

// refactorPivotGuard scales a real 2×2 system by the unit u, so the complex
// instantiation meets the guard with both parts of every entry nonzero.
func refactorPivotGuard[T Scalar](u T) func(*testing.T) {
	return func(t *testing.T) {
		// A factorization whose pivot is driven (nearly) to zero must refuse
		// to refactor rather than produce garbage.
		b := NewBuilder(2)
		s00 := b.Slot(0, 0)
		s01 := b.Slot(0, 1)
		s10 := b.Slot(1, 0)
		s11 := b.Slot(1, 1)
		m, remap := build[T](b)
		set := func(v00, v01, v10, v11 T) {
			m.Val[remap[s00]] = u * v00
			m.Val[remap[s01]] = u * v01
			m.Val[remap[s10]] = u * v10
			m.Val[remap[s11]] = u * v11
		}
		set(4, 1, 1, 4)
		lu := &LUOf[T]{}
		if err := lu.Factor(m); err != nil {
			t.Fatal(err)
		}
		// The frozen pivot (0,0) against its column's other candidate (1,0):
		// kept inside the guard's 10⁻³ band, refused below it.
		set(4e-3, 1, 1, 4)
		if err := lu.Refactor(m); err != nil {
			t.Fatalf("pivot at 4e-3 of its column: %v, want it kept", err)
		}
		set(5e-4, 1, 1, 4)
		if err := lu.Refactor(m); !errors.Is(err, ErrPivot) {
			t.Fatalf("pivot at 5e-4 of its column: %v, want ErrPivot", err)
		}
		if lu.Valid() {
			t.Fatal("factorization still valid after a refused refactor")
		}
		if err := lu.Refactor(m); !errors.Is(err, ErrPivot) {
			t.Fatalf("refactor of an invalid factorization: %v, want ErrPivot", err)
		}
		// Full factor re-pivots and succeeds.
		set(1e-12, 1, 1, 1e-12)
		if err := lu.Factor(m); err != nil {
			t.Fatalf("re-Factor after pivot failure: %v", err)
		}
		x := make([]T, 2)
		lu.Solve([]T{u, u}, x)
		wantClose(t, "solution", x, []T{1, 1}, 1e-9)
	}
}

func TestRefactorPivotGuard(t *testing.T) {
	bothScalars(t, refactorPivotGuard[float64](1), refactorPivotGuard(complex(0.6, 0.8)))
}

func singularDetection[T Scalar](t *testing.T) {
	b := NewBuilder(2)
	s00 := b.Slot(0, 0)
	s11 := b.Slot(1, 1)
	m, remap := build[T](b)
	m.Val[remap[s00]] = 1 // leaves (1,1) structurally present but zero
	lu := &LUOf[T]{}
	if err := lu.Factor(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero pivot: %v, want ErrSingular", err)
	}
	var zero T
	m.Val[remap[s11]] = zero / zero // NaN in either instantiation
	if err := lu.Factor(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("NaN pivot: %v, want ErrSingular", err)
	}
	if lu.Valid() {
		t.Fatal("factorization valid after a failed Factor")
	}
}

func TestSingularDetection(t *testing.T) {
	bothScalars(t, singularDetection[float64], singularDetection[complex128])
}

func TestOrderingReducesFillOnChain(t *testing.T) {
	// An arrow matrix (dense first row/column) is the classic ordering
	// stress: natural order fills in completely, minimum degree keeps the
	// factors as sparse as the input.
	n := 30
	b := NewBuilder(n)
	var slots []int32
	var coords [][2]int
	add := func(i, j int) {
		slots = append(slots, b.Slot(i, j))
		coords = append(coords, [2]int{i, j})
	}
	for i := 0; i < n; i++ {
		add(i, i)
		if i > 0 {
			add(0, i)
			add(i, 0)
		}
	}
	m, remap := b.BuildReal()
	vals := make([]float64, len(slots))
	for k := range vals {
		if coords[k][0] == coords[k][1] {
			vals[k] = 10
		} else {
			vals[k] = 1
		}
	}
	stamp(m, remap, slots, vals)

	ordered := NewLU()
	if err := ordered.Factor(m); err != nil {
		t.Fatal(err)
	}
	natural := NewLU()
	natural.NoOrder = true
	if err := natural.Factor(m); err != nil {
		t.Fatal(err)
	}
	if fillO, fillN := len(ordered.lx), len(natural.lx); fillO*2 >= fillN {
		t.Fatalf("min-degree fill %d not clearly below natural fill %d", fillO, fillN)
	}
	// Both must still solve correctly.
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	xo := make([]float64, n)
	xn := make([]float64, n)
	ordered.Solve(rhs, xo)
	natural.Solve(rhs, xn)
	for i := range xo {
		if math.Abs(xo[i]-xn[i]) > 1e-10*(1+math.Abs(xn[i])) {
			t.Fatalf("ordering changed the solution at %d: %g vs %g", i, xo[i], xn[i])
		}
	}
}

func TestBuilderRemapRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	s1 := b.Slot(2, 1)
	s2 := b.Slot(0, 0)
	s3 := b.Slot(2, 1) // duplicate must return the same slot
	if s1 != s3 {
		t.Fatalf("duplicate coordinate got new slot %d vs %d", s3, s1)
	}
	m, remap := b.BuildReal()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	m.Val[remap[s1]] = 7
	m.Val[remap[s2]] = 3
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	m.MulVec(x, y)
	if y[0] != 3 || y[1] != 0 || y[2] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}
