package bo

import (
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/acq"
	"easybo/internal/core"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// batchSelector picks the next batch of query points for the synchronous
// and sequential drivers. bestRaw is the incumbent objective value.
type batchSelector interface {
	SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, bestRaw float64, rng *rand.Rand) ([][]float64, error)
}

// maximizeAcq maximizes an acquisition over the box on the model's
// standardized view, through the same objective and the same gradient
// refinement EasyBO's proposer uses, so every baseline pays the same price
// per acquisition evaluation.
func maximizeAcq(a acq.Func, m surrogate.Surrogate, lo, hi []float64, rng *rand.Rand, opts optimize.MaximizeOptions) []float64 {
	x, _ := optimize.MaximizeGrad(core.AcqObjective(a, m), lo, hi, rng, opts)
	return x
}

// The baselines' tuning, fixed at the values every table was run with.
const (
	kappaLCB = 2.0  // LCB/UCB κ
	xiEI     = 0.01 // EI/PI exploration margin, standardized units
)

// eiSelector is sequential expected improvement.
type eiSelector struct {
	opts optimize.MaximizeOptions
}

func (s eiSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, bestRaw float64, rng *rand.Rand) ([][]float64, error) {
	out := make([][]float64, 0, b)
	a := acq.EI{Best: m.StandardizeY(bestRaw), Xi: xiEI}
	for i := 0; i < b; i++ {
		out = append(out, maximizeAcq(a, m, lo, hi, rng, s.opts))
	}
	return out, nil
}

// lcbSelector is the sequential confidence-bound strategy.
type lcbSelector struct {
	opts optimize.MaximizeOptions
}

func (s lcbSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, _ float64, rng *rand.Rand) ([][]float64, error) {
	out := make([][]float64, 0, b)
	a := acq.LCB{Kappa: kappaLCB}
	for i := 0; i < b; i++ {
		out = append(out, maximizeAcq(a, m, lo, hi, rng, s.opts))
	}
	return out, nil
}

// pboSelector implements pBO (Eq. 4): one weighted acquisition per fixed
// ladder weight w_i = (i-1)/(B-1).
type pboSelector struct {
	opts optimize.MaximizeOptions
}

func (s pboSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, _ float64, rng *rand.Rand) ([][]float64, error) {
	ws := acq.PBOWeights(b)
	out := make([][]float64, 0, b)
	for _, w := range ws {
		out = append(out, maximizeAcq(acq.Weighted{W: w}, m, lo, hi, rng, s.opts))
	}
	return out, nil
}

// phcboSelector implements pHCBO (Eq. 5-6): pBO penalized around the 5 most
// recent queries of the same weight index, in normalized coordinates, at
// acq.HCPenalty's default scale and radius.
type phcboSelector struct {
	opts   optimize.MaximizeOptions
	recent map[int][][]float64 // weight index -> recent normalized queries
}

func newPHCBOSelector(opts optimize.MaximizeOptions) *phcboSelector {
	return &phcboSelector{opts: opts, recent: map[int][][]float64{}}
}

// normalize maps x into the unit cube of [lo, hi].
func normalize(x, lo, hi []float64) []float64 {
	return normalizeInto(make([]float64, len(x)), x, lo, hi)
}

// normalizeInto is normalize writing into a caller-provided buffer.
func normalizeInto(out, x, lo, hi []float64) []float64 {
	for i := range x {
		span := hi[i] - lo[i]
		if span <= 0 {
			span = 1
		}
		out[i] = (x[i] - lo[i]) / span
	}
	return out
}

func (s *phcboSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, _ float64, rng *rand.Rand) ([][]float64, error) {
	ws := acq.PBOWeights(b)
	out := make([][]float64, 0, b)
	for i, w := range ws {
		pen := acq.HCPenalty{Recent: s.recent[i]}
		weighted := core.AcqObjective(acq.Weighted{W: w}, m)
		x, _ := optimize.MaximizeGrad(func() (optimize.BatchObjective, optimize.GradObjective) {
			base, baseGrad := weighted()
			nbuf, pgrad := make([]float64, len(lo)), make([]float64, len(lo))
			// The penalty is not bounded through the posterior's σ: every
			// point is scored in full.
			return func(qs [][]float64, vals []float64, _ float64) {
					base(qs, vals, math.Inf(-1))
					for k, q := range qs {
						vals[k] -= pen.Value(normalizeInto(nbuf, q, lo, hi))
					}
				}, func(q, grad []float64) float64 {
					v := baseGrad(q, grad) - pen.ValueGrad(normalizeInto(nbuf, q, lo, hi), pgrad)
					for j := range grad {
						// The penalty lives in normalized coordinates.
						if span := hi[j] - lo[j]; span > 0 {
							grad[j] -= pgrad[j] / span
						}
					}
					return v
				}
		}, lo, hi, rng, s.opts)
		out = append(out, x)
		// Record for the next iteration: newest first, keep 5.
		r := append([][]float64{normalize(x, lo, hi)}, s.recent[i]...)
		if len(r) > 5 {
			r = r[:5]
		}
		s.recent[i] = r
	}
	return out, nil
}

// easySelector adapts core.Proposer to the batch-selector interface
// (EasyBO-seq, EasyBO-S, EasyBO-SP).
type easySelector struct {
	proposer *core.Proposer
}

func (s easySelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, _ float64, rng *rand.Rand) ([][]float64, error) {
	return s.proposer.ProposeBatch(m, b, lo, hi, rng)
}

// tsSelector is (parallel) Thompson sampling: each batch slot maximizes an
// independent random-Fourier-feature draw from the posterior, which keeps
// batches diverse without any explicit penalty.
type tsSelector struct {
	opts optimize.MaximizeOptions
}

// tsFeatures is the random-Fourier basis size of one posterior draw.
const tsFeatures = 400

func (s tsSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, _ float64, rng *rand.Rand) ([][]float64, error) {
	sampler, ok := m.(surrogate.Sampler)
	if !ok {
		return nil, fmt.Errorf("bo: surrogate backend %T does not support Thompson sampling", m)
	}
	out := make([][]float64, 0, b)
	for i := 0; i < b; i++ {
		sample, err := sampler.SampleRFF(rng, tsFeatures)
		if err != nil {
			return nil, err
		}
		// The RFF draw is a pure function of fixed weights, so all workers
		// may share it.
		x, _ := optimize.MaximizeParallel(func() optimize.BatchObjective { return optimize.Each(sample) },
			lo, hi, rng, s.opts)
		out = append(out, x)
	}
	return out, nil
}

// portfolioSelector is sequential GP-Hedge over {EI, PI, UCB}: every round
// each strategy nominates a point, the hedge samples one nomination in
// proportion to exponential weights, and all strategies are rewarded by the
// refreshed posterior mean at their past nominations.
type portfolioSelector struct {
	hedge *acq.Portfolio
	opts  optimize.MaximizeOptions
}

func newPortfolioSelector(opts optimize.MaximizeOptions) *portfolioSelector {
	return &portfolioSelector{hedge: acq.NewPortfolio(3, 1.0), opts: opts}
}

func (s *portfolioSelector) SelectBatch(m surrogate.Surrogate, b int, lo, hi []float64, bestRaw float64, rng *rand.Rand) ([][]float64, error) {
	std := m.StandardizedPredictor()
	s.hedge.Update(std) // reward last round's nominations under the new posterior
	best := m.StandardizeY(bestRaw)
	strategies := []acq.Func{
		acq.EI{Best: best, Xi: xiEI},
		acq.PI{Best: best, Xi: xiEI},
		acq.UCB{Kappa: kappaLCB},
	}
	choices := make([][]float64, len(strategies))
	for i, a := range strategies {
		choices[i] = maximizeAcq(a, m, lo, hi, rng, s.opts)
	}
	s.hedge.RecordChoices(choices)
	out := make([][]float64, 0, b)
	for i := 0; i < b; i++ {
		out = append(out, choices[s.hedge.Pick(rng)])
	}
	return out, nil
}
