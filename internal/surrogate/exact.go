package surrogate

import (
	"errors"
	"math/rand"

	"easybo/internal/gp"
)

// Exact is the paper's surrogate: an exact Gaussian process fitted in the
// frame's units — exact posteriors, O(n³) trainings, rank-append O(k·n²)
// extensions. It is immutable; the zero value is invalid.
type Exact struct {
	frame
	gp *gp.GP
}

// NewExact fits the exact GP to raw observations within [lo, hi]: the frame
// scales the inputs to the unit cube and standardizes the outputs, and fit
// fits the GP there — gp.FitHyper to optimize the hyperparameters,
// gp.Fit to take them as given.
func NewExact(x [][]float64, y []float64, lo, hi []float64,
	fit func(xs [][]float64, ys []float64) (*gp.GP, error)) (*Exact, error) {

	f, xs, ys, err := newFrame(x, y, lo, hi)
	if err != nil {
		return nil, err
	}
	g, err := fit(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Exact{frame: f, gp: g}, nil
}

// Hyper returns the fitted kernel hyperparameters (log space, a copy) and
// log-noise, for warm-starting the next training.
func (e *Exact) Hyper() (theta []float64, logNoise float64) {
	return append([]float64(nil), e.gp.Theta...), e.gp.LogNoise
}

// Predictor implements Surrogate.
func (e *Exact) Predictor() Predictor { return e.predictor(false) }

// StandardizedPredictor implements Surrogate.
func (e *Exact) StandardizedPredictor() Predictor { return e.predictor(true) }

func (e *Exact) predictor(standardized bool) *predictor {
	return &predictor{f: &e.frame, unit: &exactUnit{g: e.gp}, standardized: standardized}
}

// exactUnit is the exact GP's unitPredictor: the GP's own batch and
// gradient predictions, on scratch that grows to the training-set size.
type exactUnit struct {
	g   *gp.GP
	buf gp.PredictBuf
}

func (k *exactUnit) predictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	k.g.PredictBatchWith(&k.buf, xs, mu, sigma, keep)
}

func (k *exactUnit) predictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	return k.g.PredictGradWith(&k.buf, x, dmu, dsigma)
}

// N implements Surrogate.
func (e *Exact) N() int { return e.gp.N() }

// Extend implements Surrogate via the rank-append factor update: O(k·n²)
// for k new points instead of a full O(n³) refit. The frame stays the one
// of the last full training; the cadenced hyperparameter refit re-derives it.
func (e *Exact) Extend(x [][]float64, y []float64) (Surrogate, error) {
	if len(x) == 0 {
		return e, nil
	}
	xs, ys, err := e.observations(x, y)
	if err != nil {
		return nil, err
	}
	g, err := e.gp.Extend(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Exact{frame: e.frame, gp: g}, nil
}

// WithPseudo implements Surrogate: the busy points are added as
// pseudo-observations whose targets are the current predictive means,
// exactly as in paper §III-C. Hyperparameters are shared with the receiver;
// only the factor grows (rank-append, O(b·n²) for b busy points), so the
// predictive mean is unchanged and the deviation shrinks around them.
func (e *Exact) WithPseudo(xp [][]float64) (Surrogate, error) {
	if len(xp) == 0 {
		return e, nil
	}
	xs := e.scaleAll(xp)
	ys := make([]float64, len(xp))
	for i, x := range xs {
		ys[i] = e.gp.PredictMean(x)
	}
	g, err := e.gp.WithPseudo(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Exact{frame: e.frame, gp: g}, nil
}

// SampleRFF implements Surrogate: a draw from the feature-space posterior
// (FeatureModel) on an m-feature basis of the GP's kernel, over the GP's own
// training set — pseudo-observations included — and frame. Only the SE-ARD
// kernel has that basis; m < gp.MinRFFFeatures is an error.
func (e *Exact) SampleRFF(rng *rand.Rand, m int) (func(x []float64) float64, error) {
	if _, ok := e.gp.Kern.(gp.SEARD); !ok {
		return nil, errors.New("surrogate: SampleRFF requires the SE-ARD kernel")
	}
	fm, err := fitFeatures(e.frame, e.gp.X, e.gp.Y, e.gp.Theta, e.gp.LogNoise, rng, m)
	if err != nil {
		return nil, err
	}
	return fm.SampleRFF(rng, m)
}

// LeaveOneOut returns the GP's closed-form leave-one-out diagnostics (see
// gp.GP.LeaveOneOut) with the mean, deviation and RMSE in raw output units.
func (e *Exact) LeaveOneOut() gp.LOOResult {
	r := e.gp.LeaveOneOut()
	for i := range r.Mean {
		r.Mean[i] = e.unstandardize(r.Mean[i])
		r.Sigma[i] *= e.ystd
	}
	r.RMSE *= e.ystd
	return r
}
