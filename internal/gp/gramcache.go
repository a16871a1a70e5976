package gp

import (
	"easybo/internal/linalg"
)

// gramCache precomputes the per-dimension squared coordinate differences of
// every training pair, so that repeated covariance builds over the same
// inputs (the hyperparameter optimizer evaluates the Gram matrix once per
// Adam iteration) cost one exponential per pair instead of O(d) exponentials
// and subtractions. Only the strict upper triangle is stored (the diagonal
// differences are identically zero), row by row: the pairs of point 0, then
// of point 1, …, d values each, which is the order every reader walks it in.
type gramCache struct {
	n, d int
	sq   []float64 // len n·(n−1)/2 · d
}

func newGramCache(x [][]float64) *gramCache {
	n, d := len(x), len(x[0])
	c := &gramCache{n: n, d: d, sq: make([]float64, n*(n-1)/2*d)}
	off := 0
	for i := 0; i < n; i++ {
		xi := x[i]
		for j := i + 1; j < n; j++ {
			xj := x[j]
			row := c.sq[off : off+d]
			for k := 0; k < d; k++ {
				r := xi[k] - xj[k]
				row[k] = r * r
			}
			off += d
		}
	}
	return c
}

// buildCovInto assembles K + σn²I into the n×n matrix k from the cache.
// The result is bitwise identical to GP.buildCov (same summation order),
// just cheaper, and both triangles are written: the factorization reads the
// lower one, the LML gradient the upper.
func (c *gramCache) buildCovInto(k *linalg.Matrix, kern Kernel, st *distState, logNoise float64) {
	n := c.n
	diagV := st.sf2 + NoiseVar(logNoise)
	off := 0
	for i := 0; i < n; i++ {
		krow := k.Row(i)
		krow[i] = diagV
		for j := i + 1; j < n; j++ {
			v := kern.evalScaled(st, st.scaledSqFromDiff(c.sq[off:off+c.d]))
			off += c.d
			krow[j] = v
			k.Set(j, i, v)
		}
	}
}
