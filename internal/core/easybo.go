// Package core implements the EasyBO algorithm itself — the paper's primary
// contribution (§III):
//
//   - Proposer draws the randomized exploration weight w = κ/(κ+1) with
//     κ ~ U[0, λ] (Eq. 8) and maximizes the weighted acquisition
//     α(x,w) = (1−w)·µ(x) + w·σ̂(x) over the design box, where σ̂ optionally
//     comes from a hallucinated surrogate that absorbs the busy points as
//     pseudo-observations (Eq. 9, §III-C).
//   - AskTell is Algorithm 1 with control inverted — Suggest refreshes the
//     surrogate, hallucinates the still-busy queries and dispatches the
//     maximizer of the acquisition; Observe absorbs a finished evaluation —
//     and AskTell.Run is Algorithm 1 itself: the one loop in the tree that
//     launches a suggestion whenever a worker is idle. NewMachine is the one
//     place a run is put together.
//
// The synchronous variants evaluated in §IV (EasyBO-S / EasyBO-SP, which
// reuse Proposer through ProposeBatch, and the pBO family) are Run with a
// barrier: the acquisition is shared, only the dispatch time differs.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/acq"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// Proposer selects EasyBO query points.
type Proposer struct {
	// Lambda is the κ upper bound of Eq. (8); the paper uses 6.0.
	Lambda float64
	// Penalize enables the hallucination penalization of Eq. (9) (σ̂ of the
	// posterior conditioned on pseudo-observations at the busy points).
	// Without it the plain posterior deviation is used (EasyBO-S / EasyBO-A).
	Penalize bool
	// MaxOpts tunes the inner acquisition maximizer.
	MaxOpts optimize.MaximizeOptions
}

// Propose returns the next query point given the fitted surrogate, the busy
// set (points still under evaluation, raw coordinates), and the design box.
// It also reports the sampled weight for diagnostics. The hallucinated
// variant predicts from a view of the surrogate (WithPseudo) that takes the
// busy points' Schur complement term off σ² and leaves the model itself
// untouched, and the acquisition maximization fans its multistart out across
// goroutines, each with its own allocation-free predictor.
func (p *Proposer) Propose(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error) {
	if m == nil {
		return nil, 0, errors.New("core: nil surrogate")
	}
	view := m
	if p.Penalize && len(busy) > 0 {
		view, err = m.WithPseudo(busy)
		if err != nil {
			return nil, 0, fmt.Errorf("core: hallucinating the busy set: %w", err)
		}
	}
	return p.proposeOn(view, lo, hi, rng)
}

// proposeOn maximizes the randomized-weight acquisition on an already
// hallucinated surrogate view.
func (p *Proposer) proposeOn(view surrogate.Surrogate, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error) {
	w = acq.SampleWeight(rng, p.Lambda)
	x, _ = optimize.MaximizeGrad(AcqObjective(acq.Weighted{W: w}, view), lo, hi, rng, p.MaxOpts)
	return x, w, nil
}

// ProposerGeneration numbers the arithmetic by which a model-based proposal
// follows from the surrogate, the busy set and the random source. A recorded
// proposal can be derived again, bit for bit, only by a build of the same
// generation; whoever records proposals stamps them with it (serve does, on
// every ask event). Generation 0 refined the sweep's best candidates with
// Nelder–Mead simplexes of 40·d evaluations; generation 1 refines them with
// optimize.Ascent on the posterior's analytic gradient; generation 2 sweeps
// max(20·d, 100) Latin-hypercube candidates where 0 and 1 swept
// max(60·d, 200); generation 3 takes a hallucinated σ̂ as the Schur
// complement of the busy set (surrogate.Surrogate.WithPseudo) where 0–2
// grew or updated a second factor. Any change to what an ask computes — the
// sweep, a constant of the ascent, the operation order of a prediction — is
// a new generation.
const ProposerGeneration = 3

// AcqObjective is the objective every acquisition maximization in the stack
// hands optimize.MaximizeGrad: acquisition a on the standardized view of m.
// Each worker gets one predictor. The sweep predicts a batch of points
// together (surrogate.Predictor.PredictBatch — bit-identical to one Predict
// per point) and evaluates a, unchanged, on each point's fixed (µ, σ); the
// refinement asks for the posterior's gradient beside them (PredictGrad, the
// same µ and σ) and chains it through a's two partials.
//
// When the sweep passes a floor and a never falls as σ grows
// (boundedBySigma), the batch objective asks the predictor to skip the
// solve of every point whose a at (µ, σ̄) — σ̄ the predictor's free upper
// bound on σ — is already below the floor: its true value a(µ, σ) ≤ a(µ, σ̄)
// is too, so it scores −Inf. The comparison keeps ties and NaN.
func AcqObjective(a acq.Func, m surrogate.Surrogate) optimize.GradFactory {
	bounded := boundedBySigma(a)
	return func() (optimize.BatchObjective, optimize.GradObjective) {
		w := &acqWorker{a: a, p: m.StandardizedPredictor()}
		if bounded {
			w.keep = w.reaches
		}
		return w.batch, w.grad
	}
}

// acqWorker is one worker's AcqObjective: its predictor and every buffer the
// two objectives share, in one allocation.
type acqWorker struct {
	a         acq.Func
	p         surrogate.Predictor
	keep      func(mu, sigmaMax float64) bool // reaches when a is bounded by σ, else nil
	floor     float64                         // of the batch being scored
	mu, sigma [optimize.MaxBatch]float64
	at        posteriorAt
	dsigma    []float64
}

// batch is the sweep's objective.
func (w *acqWorker) batch(xs [][]float64, out []float64, floor float64) {
	var keep func(mu, sigmaMax float64) bool
	if floor > math.Inf(-1) {
		w.floor, keep = floor, w.keep
	}
	w.p.PredictBatch(xs, w.mu[:], w.sigma[:], keep)
	for i, x := range xs {
		if w.sigma[i] < 0 {
			out[i] = math.Inf(-1)
			continue
		}
		w.at.mu, w.at.sigma = w.mu[i], w.sigma[i]
		out[i] = w.a.Value(&w.at, x)
	}
}

// reaches is the keep of a floored batch: whether a at the deviation's bound
// reaches the floor. The strict comparison keeps ties and NaN. It borrows
// w.at, which batch sets only once the predictor is done asking.
func (w *acqWorker) reaches(mu, sigmaMax float64) bool {
	w.at.mu, w.at.sigma = mu, sigmaMax
	return !(w.a.Value(&w.at, nil) < w.floor)
}

// grad is the refinement's objective.
func (w *acqWorker) grad(x, grad []float64) float64 {
	if w.dsigma == nil {
		w.dsigma = make([]float64, len(x))
	}
	w.at.mu, w.at.sigma = w.p.PredictGrad(x, grad, w.dsigma)
	dMu, dSigma := w.a.Partials(w.at.mu, w.at.sigma)
	for j := range grad {
		grad[j] = dMu*grad[j] + dSigma*w.dsigma[j]
	}
	return w.a.Value(&w.at, x)
}

// boundedBySigma reports whether a's value, as computed in floating point,
// never decreases when σ grows at a fixed µ — what lets a sweep score a point
// at an upper bound of its deviation and drop it unsolved. (1−w)·µ + w·σ and
// µ + κ·σ have it for w, κ ≥ 0: rounding is monotone, so a product with a
// non-negative constant and a sum with a fixed term cannot turn a larger σ
// into a smaller value. EI goes through NormCDF/NormPDF, whose rounding is
// not shown monotone, so it is scored in full; so is anything else.
func boundedBySigma(a acq.Func) bool {
	switch a := a.(type) {
	case acq.Weighted:
		return a.W >= 0
	case acq.LCB:
		return a.Kappa >= 0
	}
	return false
}

// posteriorAt is an already-computed prediction presented as the
// acq.Surrogate an acquisition reads its (µ, σ) from.
type posteriorAt struct{ mu, sigma float64 }

func (p *posteriorAt) Predict([]float64) (mu, sigma float64) { return p.mu, p.sigma }

// ProposeBatch selects b points synchronously (EasyBO-S when Penalize is
// false, EasyBO-SP when true). With penalization each selected point is
// immediately hallucinated so that later selections in the same batch are
// pushed away from it — the in-batch diversity device of §III-C. The
// hallucinations accumulate on one view (each step adds one point to its
// busy set and refactors the small busy-set matrix; the model is never
// copied), so a batch costs O(b·n²) instead of the O(b·n³) of per-step
// refits.
func (p *Proposer) ProposeBatch(m surrogate.Surrogate, b int, lo, hi []float64, rng *rand.Rand) ([][]float64, error) {
	if b < 1 {
		return nil, errors.New("core: batch size must be >= 1")
	}
	if m == nil {
		return nil, errors.New("core: nil surrogate")
	}
	batch := make([][]float64, 0, b)
	view := m
	for i := 0; i < b; i++ {
		x, _, err := p.proposeOn(view, lo, hi, rng)
		if err != nil {
			return nil, err
		}
		batch = append(batch, x)
		if p.Penalize && i+1 < b {
			view, err = view.WithPseudo(batch[i : i+1])
			if err != nil {
				return nil, fmt.Errorf("core: hallucinating the batch: %w", err)
			}
		}
	}
	return batch, nil
}
