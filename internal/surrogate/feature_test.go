package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
	"easybo/internal/linalg"
)

// refFitFeatures is fitFeatures as it assembled A before it summed only the
// lower triangle: every row whole, the strict upper triangle included,
// though the factorization never reads it. It is kept only to pin the
// half assembly to it bit for bit.
func refFitFeatures(f frame, xs [][]float64, ys []float64,
	theta []float64, logNoise float64, rng *rand.Rand, m int) (*FeatureModel, error) {

	basis, err := gp.NewRFF(rng, theta, len(f.lo), m)
	if err != nil {
		return nil, err
	}
	fm := &FeatureModel{frame: f, noise2: gp.NoiseVar(logNoise), basis: basis}
	a := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		a.Add(i, i, 1)
	}
	fm.rhs = make([]float64, m)
	phi := make([]float64, m)
	for k, xk := range xs {
		basis.PhiInto(phi, xk)
		yk := ys[k] / fm.noise2
		for i := 0; i < m; i++ {
			pki := phi[i] / fm.noise2
			fm.rhs[i] += phi[i] * yk
			if pki == 0 {
				continue
			}
			row := a.Row(i)
			for j := 0; j < m; j++ {
				row[j] += pki * phi[j]
			}
		}
	}
	fm.chol, err = linalg.NewCholesky(a)
	if err != nil {
		return nil, err
	}
	fm.wmean = fm.chol.Solve(fm.rhs)
	fm.n = len(xs)
	return fm, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFitFeaturesMatchesFullAssembly pins the feature fit, which sums only
// the lower triangle of A, to the full-square assembly it replaced: every
// row of the factor, its jitter, the right-hand side and the mean weights,
// bit for bit, from one observation to more observations than features.
func TestFitFeaturesMatchesFullAssembly(t *testing.T) {
	for _, n := range []int{1, 20, 300} {
		for _, m := range []int{16, 256} {
			what := fmt.Sprintf("n=%d m=%d", n, m)
			x, y, lo, hi := fixture(rand.New(rand.NewSource(int64(n))), n)
			f, xs, ys, err := newFrame(x, y, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fitFeatures(f, xs, ys, fixtureTheta, fixtureLogNoise, rand.New(rand.NewSource(3)), m)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := refFitFeatures(f, xs, ys, fixtureTheta, fixtureLogNoise, rand.New(rand.NewSource(3)), m)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			if got.chol.N != m || math.Float64bits(got.chol.Jitter) != math.Float64bits(want.chol.Jitter) {
				t.Fatalf("%s: factor N=%d jitter=%v, reference jitter=%v", what, got.chol.N, got.chol.Jitter, want.chol.Jitter)
			}
			for i := 0; i < m; i++ {
				if !sameBits(got.chol.Row(i), want.chol.Row(i)) {
					t.Fatalf("%s: factor row %d differs from the reference", what, i)
				}
			}
			if !sameBits(got.rhs, want.rhs) || !sameBits(got.wmean, want.wmean) || got.n != want.n {
				t.Fatalf("%s: rhs, mean weights or count differ from the reference", what)
			}
		}
	}
}
