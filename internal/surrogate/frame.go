package surrogate

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/stats"
)

// frame maps between a model's raw units — coordinates in the design box,
// objective values — and the units both backends are fitted in: the unit
// cube and outputs standardized to zero mean and unit variance over the
// training set. It is fixed by a full fit; Extend keeps it and a
// hallucinated view shares it, so both speak the units of the model they
// came from.
// A frame is never written after newFrame, which is what lets models share
// one across goroutines.
type frame struct {
	lo, hi      []float64
	ymean, ystd float64
}

// newFrame checks a raw training set against the box, fixes the frame it
// sets and returns the set in the frame's units. A single NaN or Inf
// observation would silently poison a factorization, so it fails here with
// an actionable message instead (a crashed simulator run must be mapped to a
// finite penalty by the caller).
func newFrame(x [][]float64, y []float64, lo, hi []float64) (frame, [][]float64, []float64, error) {
	if len(x) == 0 {
		return frame{}, nil, nil, errors.New("surrogate: empty training set")
	}
	if len(y) != len(x) {
		return frame{}, nil, nil, fmt.Errorf("surrogate: %d inputs but %d observations", len(x), len(y))
	}
	if len(lo) != len(hi) || len(lo) != len(x[0]) {
		return frame{}, nil, nil, fmt.Errorf("surrogate: bounds dimension %d/%d vs input dimension %d", len(lo), len(hi), len(x[0]))
	}
	if err := checkFinite(y); err != nil {
		return frame{}, nil, nil, err
	}
	f := frame{lo: append([]float64(nil), lo...), hi: append([]float64(nil), hi...), ymean: stats.Mean(y)}
	f.ystd = math.Sqrt(stats.Variance(y))
	if f.ystd < 1e-12 {
		f.ystd = 1 // constant outputs: center them, do not blow them up
	}
	return f, f.scaleAll(x), f.standardizeAll(y), nil
}

func checkFinite(y []float64) error {
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("surrogate: observation %d is non-finite (%v) — objectives must return finite values", i, v)
		}
	}
	return nil
}

// span is the width of axis i, 1 for a degenerate one.
func (f *frame) span(i int) float64 {
	s := f.hi[i] - f.lo[i]
	if s <= 0 {
		s = 1
	}
	return s
}

// scaleInto maps the raw point x into the unit cube, into dst.
func (f *frame) scaleInto(dst, x []float64) []float64 {
	for i := range x {
		dst[i] = (x[i] - f.lo[i]) / f.span(i)
	}
	return dst
}

// scaleAll maps raw points into the unit cube.
func (f *frame) scaleAll(x [][]float64) [][]float64 {
	xs := make([][]float64, len(x))
	for i, xi := range x {
		xs[i] = f.scaleInto(make([]float64, len(xi)), xi)
	}
	return xs
}

// StandardizeY maps a raw objective value into standardized output units
// (used to express the incumbent best for EI/PI).
func (f *frame) StandardizeY(y float64) float64 { return (y - f.ymean) / f.ystd }

// unstandardize maps a standardized output value back into raw units; a
// deviation is only scaled, by ystd.
func (f *frame) unstandardize(v float64) float64 { return v*f.ystd + f.ymean }

// standardizeAll maps raw observations into standardized units.
func (f *frame) standardizeAll(y []float64) []float64 {
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = f.StandardizeY(v)
	}
	return ys
}

// observations checks new raw observations and maps them into the frame,
// for an Extend.
func (f *frame) observations(x [][]float64, y []float64) ([][]float64, []float64, error) {
	if len(y) != len(x) {
		return nil, nil, fmt.Errorf("surrogate: %d new inputs but %d new observations", len(x), len(y))
	}
	if err := checkFinite(y); err != nil {
		return nil, nil, err
	}
	return f.scaleAll(x), f.standardizeAll(y), nil
}

// unitPredictor is a backend's predictions in the frame's inner units:
// unit-cube inputs, standardized outputs, gradients in unit-cube coordinates.
// predictor puts one behind each view. One per goroutine.
type unitPredictor interface {
	predictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool)
	predictGrad(x, dmu, dsigma []float64) (mu, sigma float64)
}

// predictor is the Predictor of both backends: it scales raw points into the
// unit cube with scratch it owns, has the backend predict there, and
// puts what comes back into the view's output units — raw, or standardized
// (the view acquisitions that mix µ and σ consume).
type predictor struct {
	f            *frame
	unit         unitPredictor
	standardized bool
	scaled       [][]float64 // unit-cube images of a batch's points
	one          [1][]float64
	out          [2]float64 // Predict's (mu, sigma)
}

// scale maps the raw points into the unit cube using the predictor's
// buffers, which grow to the widest batch seen.
func (p *predictor) scale(xs [][]float64) [][]float64 {
	if len(p.scaled) < len(xs) {
		d := len(p.f.lo)
		flat := make([]float64, len(xs)*d)
		p.scaled = make([][]float64, len(xs))
		for i := range p.scaled {
			p.scaled[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
	}
	for k, x := range xs {
		p.f.scaleInto(p.scaled[k], x)
	}
	return p.scaled[:len(xs)]
}

// Predict implements Predictor as PredictBatch on a batch of one.
func (p *predictor) Predict(x []float64) (mu, sigma float64) {
	p.one[0] = x
	p.PredictBatch(p.one[:], p.out[:1], p.out[1:], nil)
	return p.out[0], p.out[1]
}

// PredictBatch implements Predictor. keep is asked in the view's units;
// scaling by ystd > 0 keeps σ ≤ sigmaMax, and a point it rejects keeps a
// negative sigma.
func (p *predictor) PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	f := p.f
	if keep != nil && !p.standardized {
		rawKeep := keep
		keep = func(mu, sigmaMax float64) bool { return rawKeep(f.unstandardize(mu), sigmaMax*f.ystd) }
	}
	p.unit.predictBatch(p.scale(xs), mu, sigma, keep)
	if p.standardized {
		return
	}
	for i := range xs {
		mu[i] = f.unstandardize(mu[i])
		sigma[i] *= f.ystd
	}
}

// PredictGrad implements Predictor: the backend's unit-cube gradients, by
// the chain rule ∂/∂x = (ystd/span)·∂/∂u in raw units and 1/span·∂/∂u in
// standardized ones.
func (p *predictor) PredictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	f := p.f
	p.one[0] = x
	mu, sigma = p.unit.predictGrad(p.scale(p.one[:])[0], dmu, dsigma)
	ystd := f.ystd
	if p.standardized {
		ystd = 1
	} else {
		mu, sigma = f.unstandardize(mu), sigma*f.ystd
	}
	for i := range dmu {
		span := f.span(i)
		dmu[i] *= ystd / span
		dsigma[i] *= ystd / span
	}
	return mu, sigma
}
