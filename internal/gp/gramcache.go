package gp

import (
	"sync"

	"easybo/internal/linalg"
)

// gramCache precomputes the per-dimension squared coordinate differences of
// every training pair, so that repeated covariance builds over the same
// inputs (the hyperparameter optimizer evaluates the Gram matrix once per
// Adam iteration) cost one exponential per pair instead of O(d) exponentials
// and subtractions. Only the strict upper triangle is stored (the diagonal
// differences are identically zero), row by row: the pairs of point 0, then
// of point 1, …, d values each, which is the order every reader walks it in.
//
// The storage is the largest buffer a training allocates (n(n−1)/2·d
// floats: 873 KB at n = 150, d = 10) and nothing a training returns
// references it, so trainings draw it from gramPool and put it back when
// their last reader is done. Every entry a reader visits is
// written here first, in the same order, so what a buffer held before — a
// smaller or a larger set, another d, NaN — changes no bit.
type gramCache struct {
	n, d int
	sq   []float64 // len n·(n−1)/2 · d
}

// gramPool holds the caches trainings put back. It keeps what the trainings
// of every session in the process put back since the last two collections,
// so what it retains follows the trainings, not the sessions: an idle session
// holds none.
var gramPool sync.Pool

// newGramCache fills a cache for x, in a pooled buffer if one is at hand
// whose capacity holds the set, else in a buffer of exactly its size.
func newGramCache(x [][]float64) *gramCache {
	n, d := len(x), len(x[0])
	size := n * (n - 1) / 2 * d
	c, _ := gramPool.Get().(*gramCache)
	if c == nil || cap(c.sq) < size {
		c = &gramCache{sq: make([]float64, size)}
	}
	c.n, c.d, c.sq = n, d, c.sq[:size]
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
