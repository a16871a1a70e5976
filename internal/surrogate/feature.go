package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"easybo/internal/gp"
	"easybo/internal/linalg"
	"easybo/internal/stats"
)

// FeatureModel is the feature-space surrogate: Bayesian linear regression
// on a fixed random-Fourier-feature basis φ of the SE-ARD kernel,
//
//	A = I + ΦᵀΦ/σn²,   w̄ = A⁻¹·Φᵀy/σn²,   µ(x) = φ(x)ᵀw̄,
//	σ²(x) = φ(x)ᵀA⁻¹φ(x),
//
// which approximates the exact GP posterior with cost governed by the
// feature count m instead of the observation count n: a full fit is
// O(n·m²), absorbing one observation is a rank-1 O(m²) update of the
// information factor, and a prediction is O(m²) — flat no matter how long
// the session runs. Like gp.Model it owns the input box (inputs scale to
// the unit cube) and output standardization.
type FeatureModel struct {
	lo, hi      []float64
	ymean, ystd float64
	noise2      float64 // floored observation-noise variance σn²
	basis       *gp.RFF

	chol  *linalg.Cholesky // factor of the m×m information matrix A
	rhs   []float64        // Φᵀy/σn² (standardized outputs)
	wmean []float64        // A⁻¹·rhs
	n     int              // observations absorbed (pseudo included)
}

// FitFeatures fits a feature-space surrogate on raw inputs/outputs within
// [lo, hi] at fixed SE-ARD hyperparameters theta (log space) and log-noise.
// The rng draws the spectral basis: the same rng state reproduces the same
// basis, which is what makes feature-backend sessions replayable.
func FitFeatures(x [][]float64, y []float64, lo, hi []float64,
	theta []float64, logNoise float64, rng *rand.Rand, m int) (*FeatureModel, error) {

	if len(x) == 0 {
		return nil, fmt.Errorf("surrogate: empty training set")
	}
	d := len(x[0])
	if len(lo) != len(hi) || len(lo) != d {
		return nil, fmt.Errorf("surrogate: bounds dimension %d/%d vs input dimension %d", len(lo), len(hi), d)
	}
	basis, err := gp.NewRFF(rng, theta, d, m)
	if err != nil {
		return nil, err
	}
	fm := &FeatureModel{
		lo:     append([]float64(nil), lo...),
		hi:     append([]float64(nil), hi...),
		noise2: gp.NoiseVar(logNoise),
		basis:  basis,
	}
	fm.ymean = stats.Mean(y)
	fm.ystd = math.Sqrt(stats.Variance(y))
	if fm.ystd < 1e-12 {
		fm.ystd = 1
	}

	// Assemble A = I + ΦᵀΦ/σn² and rhs = Φᵀy/σn² in one pass.
	a := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		a.Add(i, i, 1)
	}
	fm.rhs = make([]float64, m)
	phi := make([]float64, m)
	xs := make([]float64, d)
	for k, xk := range x {
		if math.IsNaN(y[k]) || math.IsInf(y[k], 0) {
			return nil, fmt.Errorf("surrogate: observation %d is non-finite (%v) — objectives must return finite values", k, y[k])
		}
		basis.PhiInto(phi, fm.scaleInto(xs, xk))
		yk := (y[k] - fm.ymean) / fm.ystd / fm.noise2
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
	fm.n = len(x)
	return fm, nil
}

// scaleInto maps a raw point into the unit cube.
func (fm *FeatureModel) scaleInto(dst, x []float64) []float64 {
	for i := range x {
		span := fm.hi[i] - fm.lo[i]
		if span <= 0 {
			span = 1
		}
		dst[i] = (x[i] - fm.lo[i]) / span
	}
	return dst
}

// Predict implements Surrogate.
func (fm *FeatureModel) Predict(x []float64) (mu, sigma float64) {
	return fm.Predictor().Predict(x)
}

// PredictMean implements Surrogate.
func (fm *FeatureModel) PredictMean(x []float64) float64 {
	return fm.Predictor().PredictMean(x)
}

// Predictor implements Surrogate.
func (fm *FeatureModel) Predictor() Predictor { return fm.newPredictor(false) }

// StandardizedPredictor implements Surrogate.
func (fm *FeatureModel) StandardizedPredictor() Predictor { return fm.newPredictor(true) }

// StandardizeY implements Surrogate.
func (fm *FeatureModel) StandardizeY(y float64) float64 { return (y - fm.ymean) / fm.ystd }

// N implements Surrogate.
func (fm *FeatureModel) N() int { return fm.n }

// Extend implements Surrogate: each new observation is a rank-1 update of
// the information factor, O(m²) per point regardless of n. The receiver is
// unchanged and remains usable.
func (fm *FeatureModel) Extend(x [][]float64, y []float64) (Surrogate, error) {
	if len(x) == 0 {
		return fm, nil
	}
	if len(y) != len(x) {
		return nil, fmt.Errorf("surrogate: %d new inputs but %d new observations", len(x), len(y))
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("surrogate: observation %d is non-finite (%v) — objectives must return finite values", i, v)
		}
	}
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - fm.ymean) / fm.ystd
	}
	return fm.absorb(x, ys)
}

// WithPseudo implements Surrogate: the busy points are absorbed at their
// current (standardized) predictive means. The information update shrinks
// σ around them while the identity A'w̄ = rhs' keeps w̄ — and with it the
// predictive mean — unchanged, exactly the hallucination contract of paper
// §III-C.
func (fm *FeatureModel) WithPseudo(xp [][]float64) (Surrogate, error) {
	if len(xp) == 0 {
		return fm, nil
	}
	// Targets come from the receiver (the base posterior), matching the
	// exact backend's WithPseudo.
	p := fm.newPredictor(true)
	ys := make([]float64, len(xp))
	for i, x := range xp {
		ys[i] = p.PredictMean(x)
	}
	return fm.absorb(xp, ys)
}

// absorb clones the posterior state and applies one rank-1 information
// update per (raw input, standardized target) pair.
func (fm *FeatureModel) absorb(x [][]float64, ys []float64) (*FeatureModel, error) {
	m := fm.basis.Features()
	out := *fm
	out.chol = fm.chol.Clone()
	out.rhs = append([]float64(nil), fm.rhs...)
	phi := make([]float64, m)
	v := make([]float64, m)
	xs := make([]float64, len(fm.lo))
	sn := math.Sqrt(fm.noise2)
	for i, xi := range x {
		fm.basis.PhiInto(phi, out.scaleInto(xs, xi))
		for j := 0; j < m; j++ {
			v[j] = phi[j] / sn
			out.rhs[j] += phi[j] * ys[i] / fm.noise2
		}
		if err := out.chol.RankUpdate(v); err != nil {
			return nil, err
		}
	}
	out.wmean = out.chol.Solve(out.rhs)
	out.n = fm.n + len(x)
	return &out, nil
}

// SampleRFF implements Sampler. The model already owns a feature basis, so
// the draw reuses it (the m argument is ignored): θ ~ N(w̄, A⁻¹), sampled
// through the factor as θ = w̄ + L⁻ᵀz. The returned function is safe for
// concurrent use.
func (fm *FeatureModel) SampleRFF(rng *rand.Rand, _ int) (func(x []float64) float64, error) {
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
		f := linalg.Dot(fm.basis.Phi(fm.scaleInto(xs, x)), theta)
		return f*fm.ystd + fm.ymean
	}, nil
}

// featurePredictor is the allocation-free prediction context over a
// FeatureModel. One per goroutine.
type featurePredictor struct {
	fm           *FeatureModel
	standardized bool
	xs           []float64                    // scaled-input scratch (d)
	flat         []float64                    // feature vectors, grown to the widest group seen
	phi          [linalg.SolveWidth][]float64 // views into flat, m each
	one          [1][]float64                 // Predict's batch of one
	out          [2]float64                   // and its (mu, sigma)
}

func (fm *FeatureModel) newPredictor(standardized bool) *featurePredictor {
	return &featurePredictor{fm: fm, standardized: standardized, xs: make([]float64, len(fm.lo))}
}

// features returns w feature-vector buffers.
func (p *featurePredictor) features(w int) [][]float64 {
	m := p.fm.basis.Features()
	if len(p.flat) < w*m {
		p.flat = make([]float64, w*m)
	}
	for j := 0; j < w; j++ {
		p.phi[j] = p.flat[j*m : (j+1)*m : (j+1)*m]
	}
	return p.phi[:w]
}

// Predict implements Predictor as PredictBatch on a batch of one.
func (p *featurePredictor) Predict(x []float64) (mu, sigma float64) {
	p.one[0] = x
	p.PredictBatch(p.one[:], p.out[:1], p.out[1:], nil)
	return p.out[0], p.out[1]
}

// sigmaMargin widens the feature backend's deviation bound ‖φ‖ by enough to
// cover the rounding of the solve that σ = ‖L⁻¹φ‖ goes through: A = I +
// ΦᵀΦ/σn² ⪰ I makes σ ≤ ‖φ‖ exact only in exact arithmetic. Where the noise
// swamps the data, A ≈ I and TestPredictBatchKeep sees σ/‖φ‖ reach
// 1 + 4.4e-16 — past 1, so a margin is needed, and 2⁻²⁰ ≈ 9.5e-7 is nine
// orders of magnitude more than that (DESIGN.md §10.1).
const sigmaMargin = 1 + 0x1p-20

// PredictBatch implements Predictor. σ² = φᵀA⁻¹φ = ‖L⁻¹φ‖² costs a forward
// substitution over the m×m factor — m²/2 multiply-subtracts, whatever n is —
// so linalg.SolveWidth points go through the factor together; the solve
// keeps four or more dependency chains in flight at every width, a batch of
// one included. Each point's arithmetic is the single-point sequence
// (features, mean, solve, norm), so the values do not depend on the grouping.
// keep is asked before the solve with sigmaMax = ‖φ‖·sigmaMargin, one O(m)
// dot product; a point it rejects skips the solve and gets a negative sigma.
func (p *featurePredictor) PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	fm := p.fm
	phi := p.features(min(len(xs), linalg.SolveWidth))
	var at [linalg.SolveWidth]int // the point each pending feature vector is for
	w := 0
	for i, x := range xs {
		f := phi[w]
		fm.basis.PhiInto(f, fm.scaleInto(p.xs, x))
		mu[i] = linalg.Dot(f, fm.wmean)
		if !p.standardized {
			mu[i] = mu[i]*fm.ystd + fm.ymean
		}
		if keep != nil && !keep(mu[i], p.unscale(math.Sqrt(linalg.Dot(f, f))*sigmaMargin)) {
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

// deviations solves the pending feature vectors in place (L⁻¹φ) and writes
// σ = ‖L⁻¹φ‖ of the point at[j] each is for.
func (p *featurePredictor) deviations(phi [][]float64, at []int, sigma []float64) {
	p.fm.chol.SolveLowerMulti(phi)
	for j, v := range phi {
		s2 := linalg.Dot(v, v)
		if s2 < 0 {
			s2 = 0
		}
		sigma[at[j]] = p.unscale(math.Sqrt(s2))
	}
}

// unscale puts a standardized deviation into the predictor's output units.
func (p *featurePredictor) unscale(sigma float64) float64 {
	if p.standardized {
		return sigma
	}
	return sigma * p.fm.ystd
}

// PredictGrad implements Predictor. With dφᵢ/dx = −s·sin(wᵢ·x+bᵢ)·wᵢ,
//
//	∇µ = Σᵢ w̄ᵢ·dφᵢ/dx,   ∇σ² = 2 Σᵢ γᵢ·dφᵢ/dx,   γ = A⁻¹φ = L⁻ᵀ·L⁻¹φ,
//
// one back substitution past what σ costs. The value is PredictBatch's
// arithmetic on a batch of one.
func (p *featurePredictor) PredictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	fm := p.fm
	f := p.features(3)
	phi, dphi, gamma := f[0], f[1], f[2]
	fm.basis.PhiGradInto(phi, dphi, fm.scaleInto(p.xs, x))
	mu = linalg.Dot(phi, fm.wmean)
	fm.chol.SolveLowerInto(phi, phi) // L⁻¹φ
	s2 := linalg.Dot(phi, phi)
	if s2 < 0 {
		s2 = 0
	}
	sigma = math.Sqrt(s2)
	fm.chol.SolveUpperTInto(gamma, phi)

	inv := 0.0 // ∇σ = ∇σ²/(2σ) = Σ γᵢ·dφᵢ/dx / σ, zero where the posterior is certain
	if sigma > 1e-12 {
		inv = 1 / sigma
	}
	for i, dp := range dphi {
		gamma[i] *= dp * inv
		dphi[i] = dp * fm.wmean[i]
	}
	fm.basis.Project(dmu, dphi)
	fm.basis.Project(dsigma, gamma)
	ystd := fm.ystd
	if p.standardized {
		ystd = 1
	} else {
		mu, sigma = mu*fm.ystd+fm.ymean, sigma*fm.ystd
	}
	for j := range dmu {
		span := fm.hi[j] - fm.lo[j]
		if span <= 0 {
			span = 1
		}
		dmu[j] *= ystd / span
		dsigma[j] *= ystd / span
	}
	return mu, sigma
}

// PredictMean implements Predictor (skips the triangular solve).
func (p *featurePredictor) PredictMean(x []float64) float64 {
	fm := p.fm
	phi := p.features(1)[0]
	fm.basis.PhiInto(phi, fm.scaleInto(p.xs, x))
	mu := linalg.Dot(phi, fm.wmean)
	if p.standardized {
		return mu
	}
	return mu*fm.ystd + fm.ymean
}

// FeatureOptions tunes a FeatureManager. Zero values select the defaults.
type FeatureOptions struct {
	// Features is the basis size m (default DefaultFeatures, minimum
	// gp.MinRFFFeatures).
	Features int
	// HyperEvery is the hyperparameter-refresh cadence in observations
	// (default 64): each refresh fits an exact GP on a bounded subsample to
	// re-estimate lengthscales/noise, redraws the basis, and rebuilds the
	// weight-space posterior from scratch. Between refreshes every new
	// observation is a rank-1 update.
	HyperEvery int
	// Subsample bounds the exact hyperfit's training-set size (default
	// 256), keeping the refresh cost independent of n.
	Subsample int
	// FitIters is the Adam iteration budget per subsample hyperfit
	// (default DefaultFitIters).
	FitIters int
	// InitTheta/InitNoise warm-start the first hyperfit (the escalation
	// handoff from the exact backend).
	InitTheta []float64
	InitNoise float64
}

// FeatureManager owns a feature-space surrogate across a run. Its Fit cost
// per call is O(k·m²) for the k new observations — plus an amortized
// O(s³ + n·m²) hyperparameter refresh every HyperEvery observations — so
// per-suggestion latency stays flat in long sessions.
type FeatureManager struct {
	lo, hi []float64
	rng    *rand.Rand
	o      FeatureOptions

	theta      []float64
	logNoise   float64
	lastHyperN int
	cached     *FeatureModel
	cachedN    int
}

// NewFeatureManager builds a feature-space manager over the design box. The
// rng drives the subsample selection, hyperfit restarts, and basis draws;
// it must be the run's rng for determinism.
func NewFeatureManager(lo, hi []float64, rng *rand.Rand, o FeatureOptions) *FeatureManager {
	if o.Features <= 0 {
		o.Features = DefaultFeatures
	}
	// Features in (0, gp.MinRFFFeatures) is not clamped here: FitFeatures
	// surfaces gp.NewRFF's error on the first fit, and core.NewModelManager
	// rejects it up front.
	if o.HyperEvery <= 0 {
		o.HyperEvery = 64
	}
	if o.Subsample <= 0 {
		o.Subsample = 256
	}
	if o.FitIters <= 0 {
		o.FitIters = DefaultFitIters
	}
	return &FeatureManager{lo: lo, hi: hi, rng: rng, o: o}
}

// Fit implements Manager.
func (mm *FeatureManager) Fit(x [][]float64, y []float64) (Surrogate, error) {
	n := len(y)
	if mm.cached != nil && n == mm.cachedN {
		return mm.cached, nil
	}
	if mm.cached != nil && n-mm.lastHyperN < mm.o.HyperEvery {
		// Between refreshes: rank-1 absorb the new points. A failure (e.g. a
		// non-finite observation slipped through) falls back to a refresh,
		// mirroring ExactManager.
		fm, err := mm.cached.absorbRaw(x[mm.cachedN:n], y[mm.cachedN:n])
		if err == nil {
			mm.cached = fm
			mm.cachedN = n
			return fm, nil
		}
	}
	if err := mm.refresh(x, y); err != nil {
		return nil, err
	}
	return mm.cached, nil
}

// absorbRaw is Extend with the concrete model type preserved.
func (fm *FeatureModel) absorbRaw(x [][]float64, y []float64) (*FeatureModel, error) {
	s, err := fm.Extend(x, y)
	if err != nil {
		return nil, err
	}
	return s.(*FeatureModel), nil
}

// refresh re-estimates hyperparameters on a bounded subsample, redraws the
// feature basis, and rebuilds the weight-space posterior over all n points.
func (mm *FeatureManager) refresh(x [][]float64, y []float64) error {
	n := len(y)
	subX, subY := x, y
	if n > mm.o.Subsample {
		idx := mm.rng.Perm(n)[:mm.o.Subsample]
		sort.Ints(idx)
		subX = make([][]float64, len(idx))
		subY = make([]float64, len(idx))
		for i, j := range idx {
			subX[i], subY[i] = x[j], y[j]
		}
	}
	fo := &gp.FitOptions{Iters: mm.o.FitIters, Restarts: 1}
	switch {
	case mm.theta != nil:
		fo.InitTheta = mm.theta
		fo.InitNoise = mm.logNoise
		fo.WarmOnly = true
		fo.Iters = mm.o.FitIters / 2
		if fo.Iters < 10 {
			fo.Iters = 10
		}
	case mm.o.InitTheta != nil:
		fo.InitTheta = mm.o.InitTheta
		fo.InitNoise = mm.o.InitNoise
	}
	g, err := gp.Train(subX, subY, mm.lo, mm.hi, mm.rng, &gp.TrainOptions{Fit: fo})
	if err != nil {
		return err
	}
	mm.theta = g.Theta()
	mm.logNoise = g.LogNoise()
	fm, err := FitFeatures(x, y, mm.lo, mm.hi, mm.theta, mm.logNoise, mm.rng, mm.o.Features)
	if err != nil {
		return err
	}
	mm.lastHyperN = n
	mm.cached = fm
	mm.cachedN = n
	return nil
}

// Hyper implements Manager.
func (mm *FeatureManager) Hyper() (theta []float64, logNoise float64, ok bool) {
	if mm.theta == nil {
		return nil, 0, false
	}
	return append([]float64(nil), mm.theta...), mm.logNoise, true
}

// State implements Manager.
func (mm *FeatureManager) State() ManagerState {
	return ManagerState{Theta: mm.theta, LogNoise: mm.logNoise, LastHyperN: mm.lastHyperN}
}

// Restore implements Manager.
func (mm *FeatureManager) Restore(st ManagerState) error {
	if err := st.validate(gp.SEARD{}.NumHyper(len(mm.lo))); err != nil {
		return err
	}
	mm.theta, mm.logNoise, mm.lastHyperN = st.Theta, st.LogNoise, st.LastHyperN
	mm.cached, mm.cachedN = nil, 0
	return nil
}
