// Package gp implements Gaussian-process regression — the surrogate model of
// the EasyBO framework (paper §II-B). It provides the squared-exponential
// ARD kernel used by the paper (plus a Matérn-5/2 alternative), exact
// posterior inference via Cholesky factorization, marginal-likelihood
// hyperparameter fitting with analytic gradients, and the "hallucinated"
// posterior that conditions on pseudo-observations at busy points without
// refitting or copying the GP (Busy; paper §III-C / Eq. (9)).
package gp

import (
	"fmt"
	"math"
)

// Kernel is a stationary ARD covariance function with hyperparameters stored
// in log space. The fitted GP evaluates it through evalScaled and
// accumGradDiff on a prepared distState, which cost one exponential per
// covariance instead of d+2 (the pointwise definition, restated in the tests
// as refEval and refAccumGrad, is what they are checked against). The
// unexported methods close the set: the kernels are the ones in this file.
type Kernel interface {
	// NumHyper returns the hyperparameter count for input dimension d.
	NumHyper(d int) int
	// DefaultTheta returns a reasonable starting point for inputs scaled to
	// the unit cube and outputs standardized to unit variance.
	DefaultTheta(d int) []float64
	// Bounds returns per-hyperparameter lower and upper bounds (log space).
	Bounds(d int) (lo, hi []float64)
	// Name identifies the kernel in diagnostics.
	Name() string

	// evalScaled returns k given the scaled squared distance s = Σ rᵢ².
	evalScaled(st *distState, s float64) float64
	// dkds returns ∂k/∂s at s, given k = evalScaled(st, s). Both kernels are
	// functions of s alone, so this one derivative is all a posterior
	// gradient needs of the kernel: ∂k/∂xⱼ = dkds·2(xⱼ−x'ⱼ)/lⱼ².
	dkds(st *distState, s, k float64) float64
	// accumGradDiff adds w·∂k/∂θ to grad from a pair's per-dimension squared
	// differences (lengthscale gradients need the per-dimension split) and
	// its covariance k = evalScaled(st, st.scaledSqFromDiff(diff2)), which the
	// caller has in the Gram matrix already.
	accumGradDiff(st *distState, diff2 []float64, k, w float64, grad []float64)
}

// SEARD is the squared-exponential kernel with automatic relevance
// determination, the paper's choice:
//
//	k(a,b) = σf²·exp(−½ Σ_i (a_i−b_i)²/l_i²)
//
// theta layout: [log l_1 … log l_d, log σf].
type SEARD struct{}

// Name implements Kernel.
func (SEARD) Name() string { return "SE-ARD" }

// NumHyper implements Kernel.
func (SEARD) NumHyper(d int) int { return d + 1 }

// DefaultTheta implements Kernel.
func (SEARD) DefaultTheta(d int) []float64 {
	th := make([]float64, d+1)
	for i := 0; i < d; i++ {
		th[i] = math.Log(0.3)
	}
	th[d] = 0 // log σf = 0
	return th
}

// Bounds implements Kernel.
func (SEARD) Bounds(d int) (lo, hi []float64) {
	lo = make([]float64, d+1)
	hi = make([]float64, d+1)
	for i := 0; i < d; i++ {
		lo[i], hi[i] = math.Log(0.01), math.Log(10)
	}
	lo[d], hi[d] = math.Log(0.05), math.Log(10)
	return lo, hi
}

// Matern52 is the Matérn-5/2 ARD kernel, a common alternative surrogate:
//
//	k(a,b) = σf²·(1 + √5·r + 5r²/3)·exp(−√5·r),  r = ‖(a−b)/l‖
//
// theta layout matches SEARD.
type Matern52 struct{}

// Name implements Kernel.
func (Matern52) Name() string { return "Matern-5/2" }

// NumHyper implements Kernel.
func (Matern52) NumHyper(d int) int { return d + 1 }

// DefaultTheta implements Kernel.
func (Matern52) DefaultTheta(d int) []float64 { return SEARD{}.DefaultTheta(d) }

// Bounds implements Kernel.
func (Matern52) Bounds(d int) (lo, hi []float64) { return SEARD{}.Bounds(d) }

// distState caches the theta-derived quantities every pairwise evaluation of
// a stationary ARD kernel needs: the inverse squared lengthscales and the
// signal variance. Preparing it once per covariance build (instead of
// exponentiating d+1 hyperparameters per matrix entry) is what makes the
// cached Gram path cheap.
type distState struct {
	invl2 []float64 // exp(−2·log lᵢ)
	sf2   float64   // exp(2·log σf)
}

func prepDist(theta []float64, d int) distState {
	st := distState{invl2: make([]float64, d)}
	st.prep(theta)
	return st
}

// prep recomputes the state for theta into the existing invl2 buffer.
func (st *distState) prep(theta []float64) {
	d := len(st.invl2)
	for i := 0; i < d; i++ {
		st.invl2[i] = math.Exp(-2 * theta[i])
	}
	st.sf2 = math.Exp(2 * theta[d])
}

// scaledSq returns Σᵢ (aᵢ−bᵢ)²/lᵢ² from raw coordinates.
func (st *distState) scaledSq(a, b []float64) float64 {
	var s float64
	for i, ai := range a {
		r := ai - b[i]
		s += r * r * st.invl2[i]
	}
	return s
}

// scaledSqFromDiff returns the same from precomputed per-dimension squared
// coordinate differences (a gramCache row), with the identical summation
// order so both paths are bitwise interchangeable.
func (st *distState) scaledSqFromDiff(diff2 []float64) float64 {
	var s float64
	for i, d2 := range diff2 {
		s += d2 * st.invl2[i]
	}
	return s
}

func (SEARD) evalScaled(st *distState, s float64) float64 {
	return st.sf2 * math.Exp(-0.5*s)
}

func (SEARD) dkds(_ *distState, _, k float64) float64 { return -0.5 * k }

func (SEARD) accumGradDiff(st *distState, diff2 []float64, k, w float64, grad []float64) {
	wk := w * k
	for i, d2 := range diff2 {
		grad[i] += wk * d2 * st.invl2[i]
	}
	grad[len(diff2)] += 2 * wk
}

func (Matern52) evalScaled(st *distState, s float64) float64 {
	sr5 := math.Sqrt(5) * math.Sqrt(s)
	return st.sf2 * (1 + sr5 + 5*s/3) * math.Exp(-sr5)
}

// Finite at s = 0, where the r-form of the derivative is 0/0.
func (Matern52) dkds(st *distState, s, _ float64) float64 {
	sr5 := math.Sqrt(5) * math.Sqrt(s)
	return -(5.0 / 6.0) * st.sf2 * (1 + sr5) * math.Exp(-sr5)
}

// The lengthscale derivative is not a multiple of k, so the exponential is
// taken again here; only the σf term reads the covariance passed in.
func (Matern52) accumGradDiff(st *distState, diff2 []float64, k, w float64, grad []float64) {
	sr5 := math.Sqrt(5) * math.Sqrt(st.scaledSqFromDiff(diff2))
	dk := (5.0 / 3.0) * st.sf2 * math.Exp(-sr5) * (1 + sr5) / 2
	for i, d2 := range diff2 {
		grad[i] += w * 2 * dk * d2 * st.invl2[i]
	}
	grad[len(diff2)] += w * 2 * k
}

// validateTheta panics when the hyperparameter slice has the wrong length —
// always a programming error.
func validateTheta(k Kernel, theta []float64, d int) {
	if len(theta) != k.NumHyper(d) {
		panic(fmt.Sprintf("gp: kernel %s expects %d hyperparameters for d=%d, got %d",
			k.Name(), k.NumHyper(d), d, len(theta)))
	}
}
