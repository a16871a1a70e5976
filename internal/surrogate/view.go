package surrogate

import (
	"errors"
	"math/rand"
)

// ErrHallucinated is what Extend and SampleRFF return on a hallucinated view:
// the view conditions the deviation on its busy points without making them
// observations, so there is no training set to grow or to draw from. Both
// belong on the base model.
var ErrHallucinated = errors.New("surrogate: a hallucinated view only predicts and hallucinates; Extend and SampleRFF take the base model")

// busySet is a backend's busy-set state over one base model: what its unit
// predictor subtracts from σ² (Eq. 9 as a Schur complement), and how the set
// grows. It is immutable and shared by every predictor of the view.
type busySet interface {
	// with returns the set grown by xs (unit-cube points): bit for bit the set
	// built from all the points at once.
	with(xs [][]float64) (busySet, error)
	unit() unitPredictor
}

// view is what WithPseudo returns on both backends: the base model, which it
// reads and never writes, and the busy set it is conditioned on. Predictions
// are the base's µ and ∇µ, bit for bit, and σ̂ ≤ σ. A view is valid while its
// base is: Extend on the base spends both.
type view struct {
	f    *frame
	n    int // the base model's training-set size plus the busy points
	busy busySet
}

// hallucinate is WithPseudo on self — a base model of frame f, or a view of
// one — of size n, conditioned on busy (empty on a base model): a view over
// busy and xp. An empty xp returns self.
func hallucinate(self Surrogate, f *frame, n int, busy busySet, xp [][]float64) (Surrogate, error) {
	if len(xp) == 0 {
		return self, nil
	}
	grown, err := busy.with(f.scaleAll(xp))
	if err != nil {
		return nil, err
	}
	return &view{f: f, n: n + len(xp), busy: grown}, nil
}

// Predictor implements Surrogate.
func (v *view) Predictor() Predictor { return &predictor{f: v.f, unit: v.busy.unit()} }

// StandardizedPredictor implements Surrogate.
func (v *view) StandardizedPredictor() Predictor {
	return &predictor{f: v.f, unit: v.busy.unit(), standardized: true}
}

// StandardizeY implements Surrogate.
func (v *view) StandardizeY(y float64) float64 { return v.f.StandardizeY(y) }

// N implements Surrogate: the base's observations and the busy points.
func (v *view) N() int { return v.n }

// WithPseudo implements Surrogate: one view over the union of the busy
// points, the same bits as the base hallucinating them all at once.
func (v *view) WithPseudo(xp [][]float64) (Surrogate, error) {
	return hallucinate(v, v.f, v.n, v.busy, xp)
}

// Extend implements Surrogate: ErrHallucinated.
func (v *view) Extend([][]float64, []float64) (Surrogate, error) { return nil, ErrHallucinated }

// SampleRFF implements Surrogate: ErrHallucinated.
func (v *view) SampleRFF(*rand.Rand, int) (func(x []float64) float64, error) {
	return nil, ErrHallucinated
}
