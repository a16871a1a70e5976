package sparse

import (
	"math"
	"math/cmplx"
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

func stamp(m *Matrix, remap, slots []int32, coords [][2]int, vals []float64, dense *linalg.Matrix) {
	m.Zero()
	if dense != nil {
		for i := range dense.Data {
			dense.Data[i] = 0
		}
	}
	for k, s := range slots {
		m.Val[remap[s]] += vals[k]
		if dense != nil {
			dense.Add(coords[k][0], coords[k][1], vals[k])
		}
	}
}

func TestFactorSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 13, 40} {
		for trial := 0; trial < 5; trial++ {
			b, slots, coords := randomSystem(n, 0.25, rng)
			m, remap := b.BuildReal()
			vals := make([]float64, len(slots))
			for k := range vals {
				vals[k] = rng.NormFloat64()
				if coords[k][0] == coords[k][1] {
					vals[k] += 4 // keep comfortably nonsingular
				}
			}
			dense := linalg.NewMatrix(n, n)
			stamp(m, remap, slots, coords, vals, dense)
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			lu := NewLU()
			if err := lu.Factor(m); err != nil {
				t.Fatalf("n=%d: Factor: %v", n, err)
			}
			x := make([]float64, n)
			lu.Solve(rhs, x)
			want, err := linalg.SolveLinear(dense, rhs)
			if err != nil {
				t.Fatalf("dense solve: %v", err)
			}
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d trial=%d: x[%d]=%g want %g", n, trial, i, x[i], want[i])
				}
			}
			// Residual check too: ||Ax-b|| small.
			y := make([]float64, n)
			m.MulVec(x, y)
			for i := range y {
				if math.Abs(y[i]-rhs[i]) > 1e-9*(1+math.Abs(rhs[i])) {
					t.Fatalf("residual row %d: %g vs %g", i, y[i], rhs[i])
				}
			}
		}
	}
}

func TestRefactorMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 20
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := b.BuildReal()
	vals := make([]float64, len(slots))
	for k := range vals {
		vals[k] = rng.NormFloat64()
		if coords[k][0] == coords[k][1] {
			vals[k] += 4
		}
	}
	stamp(m, remap, slots, coords, vals, nil)
	lu := NewLU()
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for trial := 0; trial < 10; trial++ {
		// Perturb values mildly (same sign structure) and compare the
		// refactor path against a fresh full factorization.
		for k := range vals {
			vals[k] *= 1 + 0.05*rng.NormFloat64()
		}
		stamp(m, remap, slots, coords, vals, nil)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		if err := lu.Refactor(m); err != nil {
			t.Fatalf("trial %d: Refactor: %v", trial, err)
		}
		lu.Solve(rhs, x1)
		fresh := NewLU()
		if err := fresh.Factor(m); err != nil {
			t.Fatal(err)
		}
		fresh.Solve(rhs, x2)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-9*(1+math.Abs(x2[i])) {
				t.Fatalf("trial %d: refactor x[%d]=%g, factor %g", trial, i, x1[i], x2[i])
			}
		}
	}
}

func TestRefactorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 15
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := b.BuildReal()
	vals := make([]float64, len(slots))
	for k := range vals {
		vals[k] = rng.NormFloat64()
		if coords[k][0] == coords[k][1] {
			vals[k] += 4
		}
	}
	stamp(m, remap, slots, coords, vals, nil)
	lu := NewLU()
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	x := make([]float64, n)
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

func TestRefactorPivotGuard(t *testing.T) {
	// A factorization whose pivot is driven (nearly) to zero must refuse to
	// refactor rather than produce garbage.
	b := NewBuilder(2)
	s00 := b.Slot(0, 0)
	s01 := b.Slot(0, 1)
	s10 := b.Slot(1, 0)
	s11 := b.Slot(1, 1)
	m, remap := b.BuildReal()
	set := func(v00, v01, v10, v11 float64) {
		m.Val[remap[s00]] = v00
		m.Val[remap[s01]] = v01
		m.Val[remap[s10]] = v10
		m.Val[remap[s11]] = v11
	}
	set(4, 1, 1, 4)
	lu := NewLU()
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	set(1e-12, 1, 1, 1e-12) // frozen diagonal pivots collapse
	if err := lu.Refactor(m); err == nil {
		t.Fatal("expected ErrPivot from degenerate refactor")
	}
	// Full factor re-pivots and succeeds.
	if err := lu.Factor(m); err != nil {
		t.Fatalf("re-Factor after pivot failure: %v", err)
	}
	x := make([]float64, 2)
	lu.Solve([]float64{1, 1}, x)
	for _, v := range x {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("solution %v, want ≈[1 1]", x)
		}
	}
}

func TestSingularDetection(t *testing.T) {
	b := NewBuilder(2)
	s00 := b.Slot(0, 0)
	b.Slot(1, 1)
	m, remap := b.BuildReal()
	m.Val[remap[s00]] = 1 // leaves (1,1) structurally present but zero
	lu := NewLU()
	if err := lu.Factor(m); err == nil {
		t.Fatal("expected singular")
	}
}

func TestComplexFactorSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 9, 21} {
		b, slots, coords := randomSystem(n, 0.25, rng)
		m, remap := b.BuildComplex()
		dense := linalg.NewCMatrix(n, n)
		for k, s := range slots {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if coords[k][0] == coords[k][1] {
				v += 5
			}
			m.Val[remap[s]] += v
			dense.Add(coords[k][0], coords[k][1], v)
		}
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lu := NewCLU()
		if err := lu.Factor(m); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]complex128, n)
		lu.Solve(rhs, x)
		want, err := linalg.SolveComplexLinear(dense, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
				t.Fatalf("n=%d: x[%d]=%v want %v", n, i, x[i], want[i])
			}
		}
		// Refactor path must reproduce the same solution.
		if err := lu.Refactor(m); err != nil {
			t.Fatal(err)
		}
		x2 := make([]complex128, n)
		lu.Solve(rhs, x2)
		for i := range x2 {
			if cmplx.Abs(x2[i]-x[i]) > 1e-12*(1+cmplx.Abs(x[i])) {
				t.Fatalf("complex refactor drifted at %d", i)
			}
		}
	}
}

func TestComplexRefactorZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 12
	b, slots, coords := randomSystem(n, 0.2, rng)
	m, remap := b.BuildComplex()
	for k, s := range slots {
		v := complex(rng.NormFloat64(), rng.NormFloat64())
		if coords[k][0] == coords[k][1] {
			v += 5
		}
		m.Val[remap[s]] += v
	}
	lu := NewCLU()
	if err := lu.Factor(m); err != nil {
		t.Fatal(err)
	}
	rhs := make([]complex128, n)
	x := make([]complex128, n)
	allocs := testing.AllocsPerRun(50, func() {
		if err := lu.Refactor(m); err != nil {
			t.Fatal(err)
		}
		lu.Solve(rhs, x)
	})
	if allocs != 0 {
		t.Fatalf("complex Refactor+Solve allocated %.1f/op, want 0", allocs)
	}
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
	stamp(m, remap, slots, coords, vals, nil)

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
