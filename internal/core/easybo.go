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
	"math/rand"

	"easybo/internal/acq"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// Proposer selects EasyBO query points.
type Proposer struct {
	// Lambda is the κ upper bound of Eq. (8); the paper uses 6.0.
	Lambda float64
	// Penalize enables the hallucination penalization of Eq. (9) (σ̂ from a
	// surrogate refit with pseudo-observations at the busy points). Without
	// it the plain posterior deviation is used (EasyBO-S / EasyBO-A).
	Penalize bool
	// MaxOpts tunes the inner acquisition maximizer.
	MaxOpts optimize.MaximizeOptions
}

// Propose returns the next query point given the fitted surrogate, the busy
// set (points still under evaluation, raw coordinates), and the design box.
// It also reports the sampled weight for diagnostics. The hallucinated
// variant extends the surrogate incrementally (rank-append on the exact GP,
// rank-1 information updates on the feature backend), and the acquisition
// maximization fans its multistart out across goroutines, each with its own
// allocation-free predictor.
func (p *Proposer) Propose(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error) {
	if m == nil {
		return nil, 0, errors.New("core: nil surrogate")
	}
	view := m
	if p.Penalize && len(busy) > 0 {
		view, err = m.WithPseudo(busy)
		if err != nil {
			return nil, 0, fmt.Errorf("core: hallucinated refit: %w", err)
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
// optimize.Ascent on the posterior's analytic gradient. Any change to what
// an ask computes — the sweep, a constant of the ascent, the operation order
// of a prediction — is a new generation.
const ProposerGeneration = 1

// AcqObjective is the objective every acquisition maximization in the stack
// hands optimize.MaximizeGrad: acquisition a on the standardized view of m.
// Each worker gets one predictor. The sweep predicts a batch of points
// together (surrogate.Predictor.PredictBatch — bit-identical to one Predict
// per point) and evaluates a, unchanged, on each point's fixed (µ, σ); the
// refinement asks for the posterior's gradient beside them (PredictGrad, the
// same µ and σ) and chains it through a's two partials.
func AcqObjective(a acq.Func, m surrogate.Surrogate) optimize.GradFactory {
	return func() (optimize.BatchObjective, optimize.GradObjective) {
		p := m.StandardizedPredictor()
		var mu, sigma [optimize.MaxBatch]float64
		var at posteriorAt
		var dsigma []float64
		return func(xs [][]float64, out []float64) {
				p.PredictBatch(xs, mu[:], sigma[:])
				for i, x := range xs {
					at.mu, at.sigma = mu[i], sigma[i]
					out[i] = a.Value(&at, x)
				}
			}, func(x, grad []float64) float64 {
				if dsigma == nil {
					dsigma = make([]float64, len(x))
				}
				at.mu, at.sigma = p.PredictGrad(x, grad, dsigma)
				dMu, dSigma := a.Partials(at.mu, at.sigma)
				for j := range grad {
					grad[j] = dMu*grad[j] + dSigma*dsigma[j]
				}
				return a.Value(&at, x)
			}
	}
}

// posteriorAt is an already-computed prediction presented as the
// acq.Surrogate an acquisition reads its (µ, σ) from.
type posteriorAt struct{ mu, sigma float64 }

func (p *posteriorAt) Predict([]float64) (mu, sigma float64) { return p.mu, p.sigma }

// ProposeBatch selects b points synchronously (EasyBO-S when Penalize is
// false, EasyBO-SP when true). With penalization each selected point is
// immediately hallucinated so that later selections in the same batch are
// pushed away from it — the in-batch diversity device of §III-C. The
// hallucinations accumulate on one incrementally extended view (each step
// appends a single row to the factor), so a batch costs O(b·n²) instead of
// the O(b·n³) of per-step refits.
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
				return nil, fmt.Errorf("core: hallucinated refit: %w", err)
			}
		}
	}
	return batch, nil
}
