// Package linalg provides the dense real and complex linear algebra used by
// the Gaussian-process surrogate and the circuit simulator: vectors,
// column-major-free row-major matrices, Cholesky factorization for symmetric
// positive definite systems (with adaptive jitter), and LU factorization with
// partial pivoting for general real and complex systems.
//
// Sizes in this project are small (GP trains on at most a few hundred points;
// circuit matrices have a few dozen nodes), so the implementations favour
// clarity and numerical robustness over blocking or SIMD.
package linalg

import (
	"errors"
	"fmt"
)

// ErrDimension is returned when operand shapes do not conform.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of a and b.
// It panics if the lengths differ, since that is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place, four elements per trip. The elements
// are independent, so unrolling changes no result; it only gives the
// processor four updates to overlap per loop branch (the Cholesky inverse
// spends nearly all its time here).
func Axpy(alpha float64, x, y []float64) {
	n := len(x)
	if len(y) != n {
		panic("linalg: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		x4, y4 := x[i:i+4:i+4], y[i:i+4:i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// AllFinite reports whether every entry of v is finite.
func AllFinite(v []float64) bool {
	for _, x := range v {
		// x-x is 0 for every finite x and NaN for NaN/±Inf: one subtract
		// and compare instead of two classification calls (this check sits
		// on the simulator's per-iteration hot path).
		if x-x != 0 {
			return false
		}
	}
	return true
}
