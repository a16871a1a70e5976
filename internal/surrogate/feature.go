package surrogate

import (
	"math"
	"math/rand"

	"easybo/internal/gp"
	"easybo/internal/linalg"
)

// FeatureModel is the feature-space surrogate: Bayesian linear regression
// on a fixed random-Fourier-feature basis φ of the SE-ARD kernel,
//
//	A = I + ΦᵀΦ/σn²,   w̄ = A⁻¹·Φᵀy/σn²,   µ(x) = φ(x)ᵀw̄,
//	σ²(x) = φ(x)ᵀA⁻¹φ(x),
//
// which approximates the exact GP posterior with cost governed by the
// feature count m instead of the observation count n: a full fit is
// O(n·m²) (n·m(m+1)/2 multiply-adds to assemble A's lower triangle, the
// half its factorization reads, then an m³/6 factorization), absorbing one
// observation is a rank-1 O(m²) update of the information factor, and a
// prediction is O(m²) — flat no matter how long the session runs. Like
// Exact it is fitted in its frame's units.
type FeatureModel struct {
	frame
	noise2 float64 // floored observation-noise variance σn²
	basis  *gp.RFF

	chol  *linalg.Cholesky // factor of the m×m information matrix A
	rhs   []float64        // Φᵀy/σn² (standardized outputs)
	wmean []float64        // A⁻¹·rhs
	n     int              // observations absorbed
	spent bool             // Extend handed chol, rhs and wmean to another model
}

// FitFeatures fits a feature-space surrogate on raw inputs/outputs within
// [lo, hi] at fixed SE-ARD hyperparameters theta (log space) and log-noise.
// The rng draws the spectral basis: the same rng state reproduces the same
// basis, which is what makes feature-backend sessions replayable.
func FitFeatures(x [][]float64, y []float64, lo, hi []float64,
	theta []float64, logNoise float64, rng *rand.Rand, m int) (*FeatureModel, error) {

	f, xs, ys, err := newFrame(x, y, lo, hi)
	if err != nil {
		return nil, err
	}
	return fitFeatures(f, xs, ys, theta, logNoise, rng, m)
}

// fitFeatures is FitFeatures on a training set already in the frame's units.
func fitFeatures(f frame, xs [][]float64, ys []float64,
	theta []float64, logNoise float64, rng *rand.Rand, m int) (*FeatureModel, error) {

	basis, err := gp.NewRFF(rng, theta, len(f.lo), m)
	if err != nil {
		return nil, err
	}
	fm := &FeatureModel{frame: f, noise2: gp.NoiseVar(logNoise), basis: basis}

	// Assemble A = I + ΦᵀΦ/σn² and rhs = Φᵀy/σn² in one pass. Only the
	// lower triangle and the diagonal of A are summed: they are all the
	// factorization reads.
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
			linalg.Axpy(pki, phi[:i+1], a.Row(i)[:i+1])
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

// Predictor implements Surrogate.
func (fm *FeatureModel) Predictor() Predictor { return fm.predictor(false) }

// StandardizedPredictor implements Surrogate.
func (fm *FeatureModel) StandardizedPredictor() Predictor { return fm.predictor(true) }

func (fm *FeatureModel) predictor(standardized bool) *predictor {
	return &predictor{f: &fm.frame, unit: &featureUnit{fm: fm}, standardized: standardized}
}

// N implements Surrogate.
func (fm *FeatureModel) N() int { return fm.n }

// Extend implements Surrogate: each new observation is a rank-1 update of
// the information factor, O(m²) per point regardless of n, made in the
// receiver's own factor, right-hand side and mean; the returned model owns
// them and the receiver is spent.
func (fm *FeatureModel) Extend(x [][]float64, y []float64) (Surrogate, error) {
	if fm.spent {
		return nil, ErrSpent
	}
	if len(x) == 0 {
		return fm, nil
	}
	xs, ys, err := fm.observations(x, y)
	if err != nil {
		return nil, err
	}
	return fm.absorb(xs, ys)
}

// WithPseudo implements Surrogate: a view of the receiver conditioned on the
// busy points (featureBusy), which leaves µ and ∇µ the receiver's bits and
// takes the Schur complement term of Eq. 9 off σ². The factor is shared, not
// copied.
func (fm *FeatureModel) WithPseudo(xp [][]float64) (Surrogate, error) {
	if fm.spent {
		return nil, ErrSpent
	}
	return hallucinate(fm, &fm.frame, fm.n, &featureBusy{fm: fm}, xp)
}

// featureBusy is the feature backend's busySet. Absorbing the busy points
// b₁…b_B as observations at their predicted means would leave w̄ and make the
// information matrix A + Φ_bΦ_bᵀ/σn²; by Woodbury its deviation is
//
//	σ̂²(x) = σ²(x) − cᵀS⁻¹c,   cⱼ = uᵀwⱼ,   S = σn²I + WᵀW,
//
// with u = L⁻¹φ(x) — the vector σ is the norm of — and wⱼ = L⁻¹φ(bⱼ). The
// gradient takes γⱼ = A⁻¹φ(bⱼ) = L⁻ᵀwⱼ too: ∇cⱼ = Σᵢ γⱼᵢ·dφᵢ/du.
type featureBusy struct {
	fm       *FeatureModel
	w, gamma [][]float64
	s        linalg.Cholesky // of S
}

// with: each point's w and γ depend on that point alone, so b's are kept and
// S is factored whole — the same bits as building the union at once.
func (b *featureBusy) with(xs [][]float64) (busySet, error) {
	fm := b.fm
	m := fm.basis.Features()
	out := &featureBusy{fm: fm,
		w:     append([][]float64(nil), b.w...),
		gamma: append([][]float64(nil), b.gamma...)}
	for _, x := range xs {
		w, gamma := make([]float64, m), make([]float64, m)
		fm.chol.SolveLowerInto(w, fm.basis.PhiInto(w, x))
		fm.chol.SolveUpperTInto(gamma, w)
		out.w, out.gamma = append(out.w, w), append(out.gamma, gamma)
	}
	nb := len(out.w)
	s := linalg.NewMatrix(nb, nb)
	for i, wi := range out.w {
		for j, wj := range out.w[:i+1] {
			v := linalg.Dot(wi, wj)
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
		s.Add(i, i, fm.noise2)
	}
	if err := linalg.NewCholeskyInto(&out.s, s); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *featureBusy) unit() unitPredictor { return &featureUnit{fm: b.fm, busy: b} }

// reduction returns cᵀS⁻¹c = ‖L_S⁻¹c‖², what the busy set takes off σ², with
// cⱼ = uᵀwⱼ written into c; L_S⁻¹c is left there.
func (b *featureBusy) reduction(c, u []float64) float64 {
	for j, w := range b.w {
		c[j] = linalg.Dot(u, w)
	}
	b.s.SolveLowerInto(c, c)
	return linalg.Dot(c, c)
}

// absorb applies one rank-1 information update per (unit-cube input,
// standardized target) pair to the receiver's factor, right-hand side and
// mean, in place, and returns the model that owns them; the receiver is
// spent. Its scratch is O(m): the m×m factor is never copied.
func (fm *FeatureModel) absorb(xs [][]float64, ys []float64) (*FeatureModel, error) {
	m := fm.basis.Features()
	out := *fm
	fm.spent = true
	phi := make([]float64, m)
	v := make([]float64, m)
	sn := math.Sqrt(fm.noise2)
	for i, xi := range xs {
		fm.basis.PhiInto(phi, xi)
		for j := 0; j < m; j++ {
			v[j] = phi[j] / sn
			out.rhs[j] += phi[j] * ys[i] / fm.noise2
		}
		if err := out.chol.RankUpdate(v); err != nil {
			return nil, err
		}
	}
	out.chol.SolveInto(out.wmean, out.rhs)
	out.n = fm.n + len(xs)
	return &out, nil
}

// SampleRFF implements Surrogate. The model already owns a feature basis, so
// the draw reuses it (the m argument is ignored): θ ~ N(w̄, A⁻¹), sampled
// through the factor as θ = w̄ + L⁻ᵀz. The returned function is safe for
// concurrent use.
func (fm *FeatureModel) SampleRFF(rng *rand.Rand, _ int) (func(x []float64) float64, error) {
	if fm.spent {
		return nil, ErrSpent
	}
	m := fm.basis.Features()
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	theta := fm.chol.SolveUpperT(z)
	for i := range theta {
		theta[i] += fm.wmean[i]
	}
	return func(x []float64) float64 {
		xs := make([]float64, len(fm.lo))
		return fm.unstandardize(linalg.Dot(fm.basis.Phi(fm.scaleInto(xs, x)), theta))
	}, nil
}

// featureUnit is the feature backend's unitPredictor, conditioned on a busy
// set when it is not nil. One per goroutine.
type featureUnit struct {
	fm   *FeatureModel
	busy *featureBusy
	flat []float64                    // feature vectors, grown to the widest group seen
	phi  [linalg.SolveWidth][]float64 // views into flat, m each
	c, z []float64                    // the busy set's c and z, len(busy.w) each
}

// features returns w feature-vector buffers.
func (p *featureUnit) features(w int) [][]float64 {
	m := p.fm.basis.Features()
	if len(p.flat) < w*m {
		p.flat = make([]float64, w*m)
	}
	for j := 0; j < w; j++ {
		p.phi[j] = p.flat[j*m : (j+1)*m : (j+1)*m]
	}
	return p.phi[:w]
}

// sigmaMargin widens the feature backend's deviation bound ‖φ‖ by enough to
// cover the rounding of the solve that σ = ‖L⁻¹φ‖ goes through: A = I +
// ΦᵀΦ/σn² ⪰ I makes σ ≤ ‖φ‖ exact only in exact arithmetic. Where the noise
// swamps the data, A ≈ I and TestPredictBatchKeep sees σ/‖φ‖ reach
// 1 + 4.4e-16 — past 1, so a margin is needed, and 2⁻²⁰ ≈ 9.5e-7 is nine
// orders of magnitude more than that (DESIGN.md §10.1).
const sigmaMargin = 1 + 0x1p-20

// predictBatch: σ² = φᵀA⁻¹φ = ‖L⁻¹φ‖² costs a forward substitution over the
// m×m factor — m²/2 multiply-subtracts, whatever n is — so
// linalg.SolveWidth points go through the factor together; the solve keeps
// four or more dependency chains in flight at every width, a batch of one
// included. Each point's arithmetic is the single-point sequence (features,
// mean, solve, norm), so the values do not depend on the grouping. keep is
// asked before the solve with sigmaMax = ‖φ‖·sigmaMargin, one O(m) dot
// product; a point it rejects skips the solve and gets sigma −1.
func (p *featureUnit) predictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	fm := p.fm
	phi := p.features(min(len(xs), linalg.SolveWidth))
	var at [linalg.SolveWidth]int // the point each pending feature vector is for
	w := 0
	for i, x := range xs {
		f := phi[w]
		fm.basis.PhiInto(f, x)
		mu[i] = linalg.Dot(f, fm.wmean)
		if keep != nil && !keep(mu[i], math.Sqrt(linalg.Dot(f, f))*sigmaMargin) {
			sigma[i] = -1
			continue
		}
		at[w] = i
		if w++; w == len(phi) {
			p.deviations(phi, at[:], sigma)
			w = 0
		}
	}
	if w > 0 {
		p.deviations(phi[:w], at[:w], sigma)
	}
}

// deviations solves the pending feature vectors in place (u = L⁻¹φ) and
// writes σ = √(‖u‖² − busy.reduction) of the point at[j] each is for.
func (p *featureUnit) deviations(phi [][]float64, at []int, sigma []float64) {
	p.fm.chol.SolveLowerMulti(phi)
	for j, v := range phi {
		s2 := linalg.Dot(v, v)
		if p.busy != nil {
			s2 -= p.busy.reduction(p.busyScratch(), v)
		}
		if s2 < 0 {
			s2 = 0
		}
		sigma[at[j]] = math.Sqrt(s2)
	}
}

// busyScratch returns c, sized to the busy set; z is sized beside it.
func (p *featureUnit) busyScratch() []float64 {
	if nb := len(p.busy.w); len(p.c) != nb {
		p.c, p.z = make([]float64, nb), make([]float64, nb)
	}
	return p.c
}

// predictGrad: with dφᵢ/du = −s·sin(wᵢ·u+bᵢ)·wᵢ,
//
//	∇µ = Σᵢ w̄ᵢ·dφᵢ/du,   ∇σ² = 2 Σᵢ γᵢ·dφᵢ/du,   γ = A⁻¹φ = L⁻ᵀ·L⁻¹φ,
//
// one back substitution past what σ costs. A busy set adds −2 Σⱼ zⱼ·∇cⱼ to
// ∇σ² (z = S⁻¹c), which is γ less Σⱼ zⱼγⱼ in the same projection. The value
// is predictBatch's arithmetic on a batch of one.
func (p *featureUnit) predictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	fm := p.fm
	f := p.features(3)
	phi, dphi, gamma := f[0], f[1], f[2]
	fm.basis.PhiGradInto(phi, dphi, x)
	mu = linalg.Dot(phi, fm.wmean)
	fm.chol.SolveLowerInto(phi, phi) // L⁻¹φ
	s2 := linalg.Dot(phi, phi)
	if p.busy != nil {
		s2 -= p.busy.reduction(p.busyScratch(), phi)
	}
	if s2 < 0 {
		s2 = 0
	}
	sigma = math.Sqrt(s2)
	fm.chol.SolveUpperTInto(gamma, phi)
	if p.busy != nil {
		p.busy.s.SolveUpperTInto(p.z, p.c)
		for j, gj := range p.busy.gamma {
			for i, v := range gj {
				gamma[i] -= p.z[j] * v
			}
		}
	}

	inv := 0.0 // ∇σ = ∇σ²/(2σ) = Σ γᵢ·dφᵢ/du / σ, zero where the posterior is certain
	if sigma > 1e-12 {
		inv = 1 / sigma
	}
	for i, dp := range dphi {
		gamma[i] *= dp * inv
		dphi[i] = dp * fm.wmean[i]
	}
	fm.basis.Project(dmu, dphi)
	fm.basis.Project(dsigma, gamma)
	return mu, sigma
}
