package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/linalg"
)

// MinRFFFeatures is the smallest random-Fourier-feature count accepted by
// NewRFF and SampleRFF. Below it the kernel approximation is so coarse that
// results are meaningless, so callers get an error instead of a silently
// adjusted feature count.
const MinRFFFeatures = 8

// RFF is a fixed random-Fourier-feature basis (Rahimi & Recht) for the
// SE-ARD kernel: m features φ_i(x) = s·cos(w_i·x + b_i) whose inner product
// φ(a)·φ(b) approximates k(a, b). The spectral sample is drawn once at
// construction and immutable afterwards, so one basis can be shared by many
// readers; it is the machinery behind both posterior draws (SampleRFF) and
// the feature-space surrogate backend (internal/surrogate).
type RFF struct {
	w     [][]float64 // spectral frequencies, m rows of dimension d
	b     []float64   // phase offsets, U[0, 2π)
	scale float64     // σf·√(2/m)
	dim   int
}

// NewRFF draws an m-feature basis for the SE-ARD kernel with hyperparameters
// theta = [log l_1 … log l_d, log σf] over d-dimensional inputs. The rng
// drives the spectral sample; the same rng state reproduces the same basis.
func NewRFF(rng *rand.Rand, theta []float64, d, m int) (*RFF, error) {
	if m < MinRFFFeatures {
		return nil, fmt.Errorf("gp: %d random Fourier features requested, minimum is %d", m, MinRFFFeatures)
	}
	if len(theta) != d+1 {
		return nil, fmt.Errorf("gp: RFF needs %d SE-ARD hyperparameters for d=%d, got %d", d+1, d, len(theta))
	}
	r := &RFF{w: make([][]float64, m), b: make([]float64, m), dim: d}
	sf := math.Exp(theta[d])
	// Spectral sample: w_ij ~ N(0, 1/l_j²), b_i ~ U[0, 2π).
	for i := 0; i < m; i++ {
		wi := make([]float64, d)
		for j := 0; j < d; j++ {
			lj := math.Exp(theta[j])
			wi[j] = rng.NormFloat64() / lj
		}
		r.w[i] = wi
		r.b[i] = rng.Float64() * 2 * math.Pi
	}
	r.scale = sf * math.Sqrt(2.0/float64(m))
	return r, nil
}

// Features returns the feature count m.
func (r *RFF) Features() int { return len(r.w) }

// Phi returns the feature vector φ(x) for an input in the basis's
// (normalized) coordinate system.
func (r *RFF) Phi(x []float64) []float64 {
	return r.PhiInto(make([]float64, len(r.w)), x)
}

// PhiInto computes φ(x) into dst (len m) without allocating. dst is
// returned for convenience.
func (r *RFF) PhiInto(dst, x []float64) []float64 {
	for i, wi := range r.w {
		dst[i] = r.scale * math.Cos(linalg.Dot(wi, x)+r.b[i])
	}
	return dst
}

// PhiGradInto computes φ(x) into phi, the bits PhiInto computes, and into
// dphi the derivative of each feature in its phase, −s·sin(wᵢ·x + bᵢ), so
// that ∂φᵢ/∂xⱼ = dphi[i]·wᵢⱼ (see Project).
func (r *RFF) PhiGradInto(phi, dphi, x []float64) {
	for i, wi := range r.w {
		sin, cos := math.Sincos(linalg.Dot(wi, x) + r.b[i])
		phi[i] = r.scale * cos
		dphi[i] = -r.scale * sin
	}
}

// Project writes Σᵢ c[i]·wᵢ into dst: with c = a∘dphi it is the gradient in
// x of a·φ(x).
func (r *RFF) Project(dst, c []float64) {
	for j := range dst {
		dst[j] = 0
	}
	for i, wi := range r.w {
		linalg.Axpy(c[i], wi, dst)
	}
}

// SampleRFF draws an approximate sample from the GP posterior using random
// Fourier features, enabling Thompson-sampling acquisitions: the returned
// function is a fixed, cheap-to-evaluate draw f̃ ~ GP(µ, k) conditioned on
// the training data.
//
// Only stationary kernels are supported; the spectral density used here is
// the SE-ARD one, matching the paper's kernel. nf is the number of features
// (a few hundred is plenty for d ≤ 12); nf < MinRFFFeatures is an error.
//
// The sample is expressed in raw output units.
func (m *Model) SampleRFF(rng *rand.Rand, nf int) (func(x []float64) float64, error) {
	if _, ok := m.Kern.(SEARD); !ok {
		return nil, errors.New("gp: SampleRFF requires the SE-ARD kernel")
	}
	g := m.gp
	d := g.Dim()
	basis, err := NewRFF(rng, g.Theta, d, nf)
	if err != nil {
		return nil, err
	}
	noise2 := NoiseVar(g.LogNoise)

	// Bayesian linear regression on the features:
	//   A = ΦᵀΦ/σn² + I,   mean = A⁻¹ Φᵀ y / σn²,   cov = A⁻¹.
	n := g.N()
	phiX := make([][]float64, n)
	for i := 0; i < n; i++ {
		phiX[i] = basis.Phi(g.X[i])
	}
	a := linalg.NewMatrix(nf, nf)
	for i := 0; i < nf; i++ {
		a.Add(i, i, 1)
	}
	for k := 0; k < n; k++ {
		pk := phiX[k]
		for i := 0; i < nf; i++ {
			pki := pk[i] / noise2
			if pki == 0 {
				continue
			}
			row := a.Row(i)
			for j := 0; j < nf; j++ {
				row[j] += pki * pk[j]
			}
		}
	}
	rhs := make([]float64, nf)
	for k := 0; k < n; k++ {
		pk := phiX[k]
		yk := g.Y[k] / noise2
		for i := 0; i < nf; i++ {
			rhs[i] += pk[i] * yk
		}
	}
	chol, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, err
	}
	mean := chol.Solve(rhs)
	// Sample θ = mean + A^{-1/2}·z. With A = LLᵀ, cov = A⁻¹ = L⁻ᵀL⁻¹, so a
	// valid square root of the covariance is L⁻ᵀ: solve Lᵀ·u = z.
	z := make([]float64, nf)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	u := chol.SolveUpperT(z)
	thetaS := make([]float64, nf)
	for i := range thetaS {
		thetaS[i] = mean[i] + u[i]
	}

	ymean, ystd := m.ymean, m.ystd
	return func(x []float64) float64 {
		f := linalg.Dot(basis.Phi(m.scale(x)), thetaS)
		return f*ystd + ymean
	}, nil
}
