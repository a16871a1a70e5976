package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLinear(a, []float64{5, 10})
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
		got, err := SolveLinear(a, b)
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
	x, err := SolveLinear(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-14) || !almostEq(x[1], 2, 1e-14) {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCLUSolveKnown(t *testing.T) {
	// (1+i)x = 2i has solution x = 1+i.
	a := NewCMatrix(1, 1)
	a.Set(0, 0, complex(1, 1))
	x, err := SolveComplexLinear(a, []complex128{complex(0, 2)})
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
		a := NewCMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), 0))
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := a.MulVec(x)
		got, err := SolveComplexLinear(a, b)
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
	a := NewCMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	x, err := SolveComplexLinear(a, []complex128{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-3) > 1e-14 || cmplx.Abs(x[1]-2) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
	s := NewCMatrix(2, 2)
	s.Set(0, 0, 1)
	s.Set(0, 1, 2)
	s.Set(1, 0, 2)
	s.Set(1, 1, 4)
	if _, err := SolveComplexLinear(s, []complex128{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCMatrixCloneIndependence(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
	if math.IsNaN(real(a.At(0, 0))) {
		t.Fatal("unexpected NaN")
	}
}
