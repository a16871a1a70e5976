package gp

import (
	"fmt"

	"easybo/internal/linalg"
)

// Busy is a busy set the posterior is conditioned on: the paper's
// hallucination (§III-C, Eq. 9), which absorbs each busy point as a noisy
// observation at its predicted mean. The mean does not move, and the variance
// loses a Schur complement term,
//
//	σ̂²(x) = σ²(x) − c(x)ᵀS⁻¹c(x),   cⱼ(x) = k(x, bⱼ) − vᵀwⱼ,
//
// where v = L⁻¹k(x) is the vector σ is built from, wⱼ = L⁻¹k(X, bⱼ), and
// S = K_bb − WᵀW + (σn² + jitter)I is the busy points' posterior covariance
// plus the pseudo-observations' noise — at the base factor's jitter, which a
// factor extended by the busy points would carry too. The GP itself is not
// touched: a prediction pays |busy| kernel evaluations and dot products past
// its own solve, and a busy set costs two solves per point and one |busy|²
// factorization. Its gradient needs γⱼ = K⁻¹k(X, bⱼ) = L⁻ᵀwⱼ as well.
//
// A Busy is immutable and may be shared by any number of predictions at once.
type Busy struct {
	x        [][]float64 // the busy points
	w, gamma [][]float64 // L⁻¹k(X, bⱼ) and K⁻¹k(X, bⱼ)
	s        linalg.Cholesky
}

// Condition returns the busy set of prev (nil: none) and xs together. Each
// point's w and γ depend on that point alone, so prev's are reused, and S is
// factored whole: the result is, bit for bit, Condition(nil, prev's points
// and xs). S goes through linalg.NewCholesky, whose jitter ladder takes
// duplicate busy points and a floored noise.
func (g *GP) Condition(prev *Busy, xs [][]float64) (*Busy, error) {
	b := &Busy{}
	if prev != nil {
		b.x = append(b.x, prev.x...)
		b.w = append(b.w, prev.w...)
		b.gamma = append(b.gamma, prev.gamma...)
	}
	n, d := g.N(), g.Dim()
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("gp: busy point %d has dimension %d, want %d", i, len(x), d)
		}
		w, gamma := make([]float64, n), make([]float64, n)
		for t, xt := range g.X {
			w[t] = g.kernEval(xt, x)
		}
		g.chol.SolveLowerInto(w, w)
		g.chol.SolveUpperTInto(gamma, w)
		b.x, b.w, b.gamma = append(b.x, x), append(b.w, w), append(b.gamma, gamma)
	}
	nb := len(b.x)
	s := linalg.NewMatrix(nb, nb)
	noise := NoiseVar(g.LogNoise) + g.chol.Jitter
	for i, bi := range b.x {
		for j := 0; j <= i; j++ {
			v := g.kernEval(b.x[j], bi) - linalg.Dot(b.w[i], b.w[j])
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
		s.Add(i, i, noise)
	}
	if err := linalg.NewCholeskyInto(&b.s, s); err != nil {
		return nil, fmt.Errorf("gp: busy-set covariance: %w", err)
	}
	return b, nil
}

// reduction returns cᵀS⁻¹c = ‖L_S⁻¹c‖², what the busy set takes off σ², and
// leaves L_S⁻¹c in c for weights.
func (b *Busy) reduction(c []float64) float64 {
	b.s.SolveLowerInto(c, c)
	return linalg.Dot(c, c)
}

// weights writes z = S⁻¹c into z, given the L_S⁻¹c reduction left.
func (b *Busy) weights(z, t []float64) { b.s.SolveUpperTInto(z, t) }
