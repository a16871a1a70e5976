package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At wrong")
	}
	m.Set(0, 0, 9)
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatal("Set/Add wrong")
	}
	if got := m.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatal("Row wrong")
	}
	tp := m.T()
	if tp.At(1, 0) != 2 || tp.At(0, 1) != 3 {
		t.Fatal("T wrong")
	}
	if s := m.String(); s == "" {
		t.Fatal("String empty")
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 4)
	i4 := Identity(4)
	p := a.Mul(i4)
	for k := range p.Data {
		if !almostEq(p.Data[k], a.Data[k], 1e-14) {
			t.Fatal("A·I != A")
		}
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 2+r.Intn(5), 2+r.Intn(5)
		a := randomMatrix(rng, n, m)
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// A·x as matrix-matrix product with an m×1 matrix must agree.
		xm := NewMatrix(m, 1)
		copy(xm.Data, x)
		want := a.Mul(xm)
		got := a.MulVec(x)
		for i := 0; i < n; i++ {
			if !almostEq(got[i], want.At(i, 0), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		c := randomMatrix(rng, n, n)
		lhs := a.Mul(b).Mul(c)
		rhs := a.Mul(b.Mul(c))
		for k := range lhs.Data {
			if !almostEq(lhs.Data[k], rhs.Data[k], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddMatScaleDiag(t *testing.T) {
	s := NewMatrixFromRows([][]float64{{5.5, 11}, {16.5, 22}})
	s.AddToDiag(1)
	if s.At(0, 0) != 6.5 || s.At(1, 1) != 23 {
		t.Fatal("AddToDiag wrong")
	}
	if s.MaxAbsDiag() != 23 {
		t.Fatal("MaxAbsDiag wrong")
	}
}
