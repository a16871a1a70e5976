package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// solve is SolveLU on a copy of a, into a fresh solution.
func solve[T scalar](a, b []T) ([]T, error) {
	x := make([]T, len(b))
	return x, SolveLU(append([]T(nil), a...), b, x)
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := solve(a.Data, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		a := randomMatrix(rng, n, n)
		a.AddToDiag(float64(n)) // keep comfortably nonsingular
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := solve(a.Data, b)
		if err != nil {
			return false
		}
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

func TestLUPivoting(t *testing.T) {
	// Zero pivot at (0,0) requires a row swap.
	a := NewMatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := solve(a.Data, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-14) || !almostEq(x[1], 2, 1e-14) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := solve(a.Data, []float64{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
	if err := SolveLU(a.Data, []float64{1, 1, 1}, make([]float64, 3)); err != ErrDimension {
		t.Fatalf("3-vector against a 2×2 matrix: %v, want ErrDimension", err)
	}
}

func TestCLUSolveKnown(t *testing.T) {
	// (1+i)x = 2i has solution x = 1+i.
	x, err := solve([]complex128{complex(1, 1)}, []complex128{complex(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(1, 1)) > 1e-14 {
		t.Fatalf("x = %v, want 1+1i", x[0])
	}
}

func TestCLUSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := make([]complex128, n*n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += complex(float64(n), 0)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := range b {
			for j, xj := range x {
				b[i] += a[i*n+j] * xj
			}
		}
		got, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-8*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCLUPivotingAndSingular(t *testing.T) {
	x, err := solve([]complex128{0, 1, 1, 0}, []complex128{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-3) > 1e-14 || cmplx.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
	if _, err := solve([]complex128{1, 2, 2, 4}, []complex128{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}
