package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/stats"
)

// Model is the user-facing surrogate: it owns the input box bounds (raw
// design space), scales inputs to the unit cube, standardizes outputs, and
// exposes predictions in raw units. It also supports hallucinated variants
// that share hyperparameters with the base model.
type Model struct {
	Lo, Hi []float64 // raw box bounds
	Kern   Kernel

	ymean, ystd float64
	gp          *GP
}

// TrainOptions configures Model training.
type TrainOptions struct {
	Kernel Kernel      // default SEARD{}
	Fit    *FitOptions // hyperparameter-fit options
	// FixedTheta skips marginal-likelihood optimization and fits at the
	// given kernel hyperparameters and log-noise (used for fast refits
	// between scheduled hyperparameter re-optimizations).
	FixedTheta []float64
	FixedNoise float64
}

// Train fits a surrogate on raw inputs/outputs within [lo, hi] bounds.
func Train(x [][]float64, y []float64, lo, hi []float64, rng *rand.Rand, opts *TrainOptions) (*Model, error) {
	if len(x) == 0 {
		return nil, errors.New("gp: empty training set")
	}
	if len(lo) != len(hi) || len(lo) != len(x[0]) {
		return nil, fmt.Errorf("gp: bounds dimension %d/%d vs input dimension %d",
			len(lo), len(hi), len(x[0]))
	}
	var o TrainOptions
	if opts != nil {
		o = *opts
	}
	if o.Kernel == nil {
		o.Kernel = SEARD{}
	}
	// A single NaN/Inf observation would silently poison the covariance
	// factorization; fail fast with an actionable message instead (a crashed
	// simulator run must be mapped to a finite penalty by the caller).
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("gp: observation %d is non-finite (%v) — objectives must return finite values", i, v)
		}
	}
	m := &Model{Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...), Kern: o.Kernel}

	// Standardize outputs.
	m.ymean = stats.Mean(y)
	m.ystd = math.Sqrt(stats.Variance(y))
	if m.ystd < 1e-12 {
		m.ystd = 1
	}
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - m.ymean) / m.ystd
	}
	// Scale inputs.
	xs := make([][]float64, len(x))
	for i, xi := range x {
		xs[i] = m.scale(xi)
	}

	var g *GP
	var err error
	if o.FixedTheta != nil {
		g, err = Fit(o.Kernel, xs, ys, o.FixedTheta, o.FixedNoise)
	} else {
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		g, err = FitHyper(o.Kernel, xs, ys, rng, o.Fit)
	}
	if err != nil {
		return nil, err
	}
	m.gp = g
	return m, nil
}

// scale maps a raw point into the unit cube.
func (m *Model) scale(x []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		span := m.Hi[i] - m.Lo[i]
		if span <= 0 {
			span = 1
		}
		out[i] = (x[i] - m.Lo[i]) / span
	}
	return out
}

// Predict returns the posterior mean and standard deviation at the raw
// point x, in raw output units.
func (m *Model) Predict(x []float64) (mu, sigma float64) {
	mu, sigma = m.gp.Predict(m.scale(x))
	return mu*m.ystd + m.ymean, sigma * m.ystd
}

// PredictMean returns only the posterior mean at the raw point x.
func (m *Model) PredictMean(x []float64) float64 {
	return m.gp.PredictMean(m.scale(x))*m.ystd + m.ymean
}

// StandardizeY maps a raw objective value into the model's standardized
// output units (used to express the incumbent best for EI/PI).
func (m *Model) StandardizeY(y float64) float64 { return (y - m.ymean) / m.ystd }

// Theta returns the fitted kernel hyperparameters (log space) for warm
// starting subsequent fits.
func (m *Model) Theta() []float64 { return append([]float64(nil), m.gp.Theta...) }

// LogNoise returns the fitted log observation-noise deviation.
func (m *Model) LogNoise() float64 { return m.gp.LogNoise }

// N returns the training-set size.
func (m *Model) N() int { return m.gp.N() }

// Extend returns a new model whose training set is augmented with the given
// raw observations at unchanged hyperparameters and output standardization,
// using the incremental rank-append factor update: O(k·n²) for k new points
// instead of a full O(n³) refit. The receiver remains valid. Output
// standardization constants are frozen at the last full Train — the cadenced
// hyperparameter refit re-derives them.
func (m *Model) Extend(x [][]float64, y []float64) (*Model, error) {
	if len(x) == 0 {
		return m, nil
	}
	if len(y) != len(x) {
		return nil, fmt.Errorf("gp: %d new inputs but %d new observations", len(x), len(y))
	}
	xs := make([][]float64, len(x))
	ys := make([]float64, len(y))
	for i, xi := range x {
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("gp: observation %d is non-finite (%v) — objectives must return finite values", i, y[i])
		}
		xs[i] = m.scale(xi)
		ys[i] = (y[i] - m.ymean) / m.ystd
	}
	g, err := m.gp.Extend(xs, ys)
	if err != nil {
		return nil, err
	}
	out := *m
	out.gp = g
	return &out, nil
}

// Predictor is a reusable prediction context over a model: it owns the
// kernel-vector and input-scaling scratch, so repeated predictions (the
// acquisition maximizer evaluates hundreds per proposal) allocate nothing.
// A Predictor is for use by a single goroutine; create one per worker.
type Predictor struct {
	m            *Model
	standardized bool
	buf          PredictBuf  // its one and out serve the predictor's single-point calls too
	scaled       [][]float64 // unit-cube images of a batch's points
}

// Predictor returns a raw-unit prediction context.
func (m *Model) Predictor() *Predictor { return &Predictor{m: m} }

// StandardizedPredictor returns a prediction context in standardized output
// units (the view acquisition functions must consume).
func (m *Model) StandardizedPredictor() *Predictor {
	return &Predictor{m: m, standardized: true}
}

// scale maps the raw points into the unit cube using the predictor's
// buffers, which grow to the widest batch seen.
func (p *Predictor) scale(xs [][]float64) [][]float64 {
	m := p.m
	if len(p.scaled) < len(xs) {
		d := len(m.Lo)
		flat := make([]float64, len(xs)*d)
		p.scaled = make([][]float64, len(xs))
		for i := range p.scaled {
			p.scaled[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
	}
	for k, x := range xs {
		dst := p.scaled[k]
		for i := range x {
			span := m.Hi[i] - m.Lo[i]
			if span <= 0 {
				span = 1
			}
			dst[i] = (x[i] - m.Lo[i]) / span
		}
	}
	return p.scaled[:len(xs)]
}

// Predict returns the posterior mean and deviation at the raw point x,
// in raw or standardized output units per the predictor's view. It is
// PredictBatch on a batch of one.
func (p *Predictor) Predict(x []float64) (mu, sigma float64) {
	b := &p.buf
	b.one[0] = x
	p.PredictBatch(b.one[:], b.out[:1], b.out[1:], nil)
	return b.out[0], b.out[1]
}

// PredictBatch writes the posterior mean and deviation at every raw point
// xs[i] into mu[i] and sigma[i], bit-identical to Predict(xs[i]); keep, in
// the predictor's output units, may reject a point before its solve (see
// GP.PredictBatchWith), which leaves its sigma negative.
func (p *Predictor) PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	if keep != nil && !p.standardized {
		// Asked in raw units; scaling by ystd > 0 keeps σ ≤ sigmaMax.
		rawKeep, ystd, ymean := keep, p.m.ystd, p.m.ymean
		keep = func(mu, sigmaMax float64) bool { return rawKeep(mu*ystd+ymean, sigmaMax*ystd) }
	}
	p.m.gp.PredictBatchWith(&p.buf, p.scale(xs), mu, sigma, keep)
	if p.standardized {
		return
	}
	for i := range xs {
		mu[i] = mu[i]*p.m.ystd + p.m.ymean
		sigma[i] *= p.m.ystd
	}
}

// PredictGrad returns the posterior mean and deviation at the raw point x —
// the bits PredictBatch returns there — and writes their gradients with
// respect to the raw coordinates into dmu and dsigma (see
// GP.PredictGradWith), in the predictor's output units.
func (p *Predictor) PredictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	m := p.m
	p.buf.one[0] = x
	mu, sigma = m.gp.PredictGradWith(&p.buf, p.scale(p.buf.one[:])[0], dmu, dsigma)
	ystd := m.ystd
	if p.standardized {
		ystd = 1
	} else {
		mu, sigma = mu*m.ystd+m.ymean, sigma*m.ystd
	}
	for i := range dmu {
		span := m.Hi[i] - m.Lo[i]
		if span <= 0 {
			span = 1
		}
		dmu[i] *= ystd / span
		dsigma[i] *= ystd / span
	}
	return mu, sigma
}

// PredictMean returns only the posterior mean at the raw point x.
func (p *Predictor) PredictMean(x []float64) float64 {
	p.buf.one[0] = x
	mu := p.m.gp.PredictMean(p.scale(p.buf.one[:])[0])
	if p.standardized {
		return mu
	}
	return mu*p.m.ystd + p.m.ymean
}

// WithPseudo returns a hallucinated variant of the model: the busy points xp
// (raw units) are added as pseudo-observations whose targets are the current
// predictive means, exactly as in paper §III-C. Hyperparameters are shared
// with the base model; only the covariance factorization changes, so the
// predictive mean is unchanged and the predictive deviation shrinks around
// the busy points. The factor is extended incrementally (rank-append), so
// hallucinating b busy points costs O(b·n²), not a refit.
func (m *Model) WithPseudo(xp [][]float64) (*Model, error) {
	if len(xp) == 0 {
		return m, nil
	}
	xs := make([][]float64, len(xp))
	ys := make([]float64, len(xp))
	for i, x := range xp {
		xs[i] = m.scale(x)
		ys[i] = m.gp.PredictMean(xs[i]) // standardized-space predictive mean
	}
	g, err := m.gp.WithPseudo(xs, ys)
	if err != nil {
		return nil, err
	}
	out := *m
	out.gp = g
	return &out, nil
}
