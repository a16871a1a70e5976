package stats

import (
	"math/rand"
)

// LatinHypercube returns n points in [0,1)^d forming a Latin hypercube:
// in each dimension the n points occupy the n equal-width strata exactly
// once, in an order shuffled by rng. This is the standard initial design
// for Bayesian optimization (20 points in the paper's experiments).
func LatinHypercube(rng *rand.Rand, n, d int) [][]float64 {
	if n < 0 || d < 0 {
		panic("stats: negative LatinHypercube size")
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			pts[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}

// LatinHypercubeIn returns an n-point Latin hypercube over the box [lo, hi]:
// LatinHypercube scaled per dimension. Every initial design and candidate
// sweep in the tree is this function, so a replayed run re-derives the same
// bits wherever its design was drawn.
func LatinHypercubeIn(rng *rand.Rand, n int, lo, hi []float64) [][]float64 {
	pts := LatinHypercube(rng, n, len(lo))
	for _, x := range pts {
		for j := range x {
			x[j] = lo[j] + x[j]*(hi[j]-lo[j])
		}
	}
	return pts
}
