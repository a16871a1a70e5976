package linalg

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// scalar is the set of value types the dense LU is instantiated for.
type scalar interface{ float64 | complex128 }

// SolveLU solves the n×n system A·x = b by LU factorization with partial
// pivoting, P·A = L·U, pivoting on the modulus for a complex system. lu
// holds A row-major and is factored in place — L unit lower triangular and
// U upper triangular, stored compactly. The solution is written into x,
// which must not alias b.
func SolveLU[T scalar](lu, b, x []T) error {
	n := len(b)
	if len(lu) != n*n || len(x) != n {
		return ErrDimension
	}
	row := func(i int) []T { return lu[i*n : (i+1)*n] }
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at or below row k.
		p := k
		maxAbs := magnitude(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := magnitude(lu[i*n+k]); a > maxAbs {
				maxAbs = a
				p = i
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		if p != k {
			rk, rp := row(k), row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri, rk := row(i), row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}

	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	// Forward substitution with the unit lower triangle.
	for i := 1; i < n; i++ {
		r := row(i)
		s := x[i]
		for k := 0; k < i; k++ {
			s -= r[k] * x[k]
		}
		x[i] = s
	}
	// Back substitution with the upper triangle.
	for i := n - 1; i >= 0; i-- {
		r := row(i)
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= r[k] * x[k]
		}
		x[i] = s / r[i]
	}
	return nil
}

// magnitude is what partial pivoting compares: |v|, the modulus for a
// complex value.
func magnitude[T scalar](v T) float64 {
	switch v := any(v).(type) {
	case float64:
		return math.Abs(v)
	case complex128:
		return cmplx.Abs(v)
	}
	panic("unreachable")
}
