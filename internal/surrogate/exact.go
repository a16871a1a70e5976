package surrogate

import "easybo/internal/gp"

// Exact is the paper's surrogate: an exact Gaussian process fitted in the
// frame's units — exact posteriors, O(n³) trainings, rank-append O(k·n²)
// extensions. Readers share it; Extend spends it. The zero value is invalid.
type Exact struct {
	frame
	gp    *gp.GP
	spent bool // Extend returned the grown model
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
// gradient predictions, conditioned on a busy set when it is not nil, on
// scratch that grows to the training-set size.
type exactUnit struct {
	g    *gp.GP
	busy *gp.Busy
	buf  gp.PredictBuf
}

func (k *exactUnit) predictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	k.g.PredictBatchWith(&k.buf, k.busy, xs, mu, sigma, keep)
}

func (k *exactUnit) predictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	return k.g.PredictGradWith(&k.buf, k.busy, x, dmu, dsigma)
}

// exactBusy is the exact GP's busySet: gp.Busy over the base GP (nil while
// empty).
type exactBusy struct {
	g    *gp.GP
	busy *gp.Busy
}

func (b *exactBusy) with(xs [][]float64) (busySet, error) {
	busy, err := b.g.Condition(b.busy, xs)
	if err != nil {
		return nil, err
	}
	return &exactBusy{g: b.g, busy: busy}, nil
}

func (b *exactBusy) unit() unitPredictor { return &exactUnit{g: b.g, busy: b.busy} }

// N implements Surrogate.
func (e *Exact) N() int { return e.gp.N() }

// Extend implements Surrogate via the rank-append factor update: O(k·n²)
// for k new points instead of a full O(n³) refit. The frame stays the one
// of the last full training; the cadenced hyperparameter refit re-derives it.
// gp.GP.Extend grows the factor, the training set and α in the storage the
// receiver holds, so a successful extension spends it, as on the feature
// backend; a failed one leaves it usable.
func (e *Exact) Extend(x [][]float64, y []float64) (Surrogate, error) {
	if e.spent {
		return nil, ErrSpent
	}
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
	e.spent = true
	return &Exact{frame: e.frame, gp: g}, nil
}

// WithPseudo implements Surrogate: a view of the receiver conditioned on the
// busy points (gp.Busy), which leaves µ and ∇µ the receiver's bits and takes
// the Schur complement term of Eq. 9 off σ². The GP is shared, not copied.
func (e *Exact) WithPseudo(xp [][]float64) (Surrogate, error) {
	if e.spent {
		return nil, ErrSpent
	}
	return hallucinate(e, &e.frame, e.N(), &exactBusy{g: e.gp}, xp)
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
