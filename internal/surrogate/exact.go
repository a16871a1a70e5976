package surrogate

import (
	"math/rand"

	"easybo/internal/gp"
)

// Exact adapts the exact Gaussian process (gp.Model) to the Surrogate
// interface. It is a thin immutable wrapper; the zero value is invalid.
type Exact struct {
	m *gp.Model
}

// NewExact wraps a fitted gp.Model.
func NewExact(m *gp.Model) Exact { return Exact{m: m} }

// Predict implements Surrogate.
func (e Exact) Predict(x []float64) (mu, sigma float64) { return e.m.Predict(x) }

// PredictMean implements Surrogate.
func (e Exact) PredictMean(x []float64) float64 { return e.m.PredictMean(x) }

// Predictor implements Surrogate.
func (e Exact) Predictor() Predictor { return e.m.Predictor() }

// StandardizedPredictor implements Surrogate.
func (e Exact) StandardizedPredictor() Predictor { return e.m.StandardizedPredictor() }

// StandardizeY implements Surrogate.
func (e Exact) StandardizeY(y float64) float64 { return e.m.StandardizeY(y) }

// N implements Surrogate.
func (e Exact) N() int { return e.m.N() }

// Extend implements Surrogate via the rank-append factor update.
func (e Exact) Extend(x [][]float64, y []float64) (Surrogate, error) {
	m, err := e.m.Extend(x, y)
	if err != nil {
		return nil, err
	}
	return Exact{m: m}, nil
}

// WithPseudo implements Surrogate via the incremental hallucination path.
func (e Exact) WithPseudo(xp [][]float64) (Surrogate, error) {
	m, err := e.m.WithPseudo(xp)
	if err != nil {
		return nil, err
	}
	return Exact{m: m}, nil
}

// SampleRFF implements Sampler.
func (e Exact) SampleRFF(rng *rand.Rand, m int) (func(x []float64) float64, error) {
	return e.m.SampleRFF(rng, m)
}

// ExactOptions tunes an ExactManager. Zero values select the paper's
// defaults (DefaultRefitEvery, DefaultFitIters, SE-ARD kernel).
type ExactOptions struct {
	RefitEvery int       // hyperparameter re-optimization cadence in observations
	FitIters   int       // Adam iterations per hyperfit
	Kernel     gp.Kernel // surrogate kernel (nil = SE-ARD)
}

// ExactManager owns the exact-GP surrogate across a run: it re-optimizes
// hyperparameters every RefitEvery observations (warm-started from the last
// fit) and performs cheap fixed-hyperparameter refits in between, caching
// the fitted model while the dataset is unchanged. Between hyperparameter
// refits no covariance rebuild or refactorization happens — new points are
// absorbed through the incremental rank-append update.
type ExactManager struct {
	lo, hi     []float64
	rng        *rand.Rand
	refitEvery int
	fitIters   int

	kernel     gp.Kernel
	lastHyperN int // dataset size at the last hyperparameter optimization
	theta      []float64
	logNoise   float64
	cached     *gp.Model
	cachedN    int
}

// NewExactManager builds an exact-GP manager over the design box. The rng
// drives hyperparameter restarts and must be the run's rng for determinism.
func NewExactManager(lo, hi []float64, rng *rand.Rand, o ExactOptions) *ExactManager {
	if o.RefitEvery <= 0 {
		o.RefitEvery = DefaultRefitEvery
	}
	if o.FitIters <= 0 {
		o.FitIters = DefaultFitIters
	}
	return &ExactManager{
		lo: lo, hi: hi, rng: rng,
		refitEvery: o.RefitEvery,
		fitIters:   o.FitIters,
		kernel:     o.Kernel,
	}
}

// Fit implements Manager. Observations are append-only across a run, so a
// cached model is valid while the count is unchanged and can absorb new
// points through the incremental rank-append update.
func (mm *ExactManager) Fit(x [][]float64, y []float64) (Surrogate, error) {
	n := len(y)
	if mm.cached != nil && n == mm.cachedN {
		return NewExact(mm.cached), nil
	}
	if mm.cached != nil && mm.theta != nil && n-mm.lastHyperN < mm.refitEvery {
		// Between hyperparameter refits: absorb the new points through the
		// rank-append update. Failure means the frozen hyperparameters or
		// standardization became numerically unusable for the grown dataset
		// (e.g. duplicate points with tiny noise); fall through to a fresh
		// hyperparameter fit in that case. So does a manager that was just
		// Restored: it has hyperparameters but no factor to extend.
		m, err := mm.cached.Extend(x[mm.cachedN:n], y[mm.cachedN:n])
		if err == nil {
			mm.cached = m
			mm.cachedN = n
			return NewExact(m), nil
		}
	}
	fo := &gp.FitOptions{Iters: mm.fitIters}
	if mm.theta != nil {
		// Warm start: fewer iterations, no default or random restarts.
		fo.InitTheta = mm.theta
		fo.InitNoise = mm.logNoise
		fo.WarmOnly = true
		fo.Iters = mm.fitIters / 2
		if fo.Iters < 10 {
			fo.Iters = 10
		}
	}
	m, err := gp.Train(x, y, mm.lo, mm.hi, mm.rng, &gp.TrainOptions{Kernel: mm.kernel, Fit: fo})
	if err != nil {
		return nil, err
	}
	mm.theta = m.Theta()
	mm.logNoise = m.LogNoise()
	mm.lastHyperN = n
	mm.cached = m
	mm.cachedN = n
	return NewExact(m), nil
}

// Hyper implements Manager.
func (mm *ExactManager) Hyper() (theta []float64, logNoise float64, ok bool) {
	if mm.theta == nil {
		return nil, 0, false
	}
	return append([]float64(nil), mm.theta...), mm.logNoise, true
}

// State implements Manager.
func (mm *ExactManager) State() ManagerState {
	return ManagerState{Theta: mm.theta, LogNoise: mm.logNoise, LastHyperN: mm.lastHyperN}
}

// Restore implements Manager.
func (mm *ExactManager) Restore(st ManagerState) error {
	kern := mm.kernel
	if kern == nil {
		kern = gp.SEARD{}
	}
	if err := st.validate(kern.NumHyper(len(mm.lo))); err != nil {
		return err
	}
	mm.theta, mm.logNoise, mm.lastHyperN = st.Theta, st.LogNoise, st.LastHyperN
	mm.cached, mm.cachedN = nil, 0
	return nil
}
