package acq

import (
	"math"
	"math/rand"
)

// Portfolio implements GP-Hedge (Hoffman, Brochu, de Freitas — cited as the
// portfolio approach in the paper's §II-B survey): it maintains exponential
// weights over a set of acquisition strategies, samples one per proposal in
// proportion to those weights, and rewards every strategy by the posterior
// mean of the point it would have chosen.
type Portfolio struct {
	Eta     float64 // hedge learning rate (default 1.0)
	rewards []float64
	last    [][]float64 // per-strategy candidate chosen at the last round
}

// NewPortfolio creates a hedge over n strategies.
func NewPortfolio(n int, eta float64) *Portfolio {
	if eta <= 0 {
		eta = 1.0
	}
	return &Portfolio{Eta: eta, rewards: make([]float64, n), last: make([][]float64, n)}
}

// Weights returns the current selection probabilities (softmax of rewards).
func (p *Portfolio) Weights() []float64 {
	w := make([]float64, len(p.rewards))
	mx := math.Inf(-1)
	for _, r := range p.rewards {
		if r > mx {
			mx = r
		}
	}
	var sum float64
	for i, r := range p.rewards {
		w[i] = math.Exp(p.Eta * (r - mx))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Pick samples a strategy index according to the current weights.
func (p *Portfolio) Pick(rng *rand.Rand) int {
	w := p.Weights()
	u := rng.Float64()
	var acc float64
	for i, wi := range w {
		acc += wi
		if u <= acc {
			return i
		}
	}
	return len(w) - 1
}

// RecordChoices stores the point each strategy proposed this round; call
// before the objective evaluation.
func (p *Portfolio) RecordChoices(choices [][]float64) {
	if len(choices) != len(p.last) {
		panic("acq: Portfolio.RecordChoices arity mismatch")
	}
	for i, c := range choices {
		p.last[i] = append([]float64(nil), c...)
	}
}

// Update rewards every strategy with the surrogate's posterior mean at the
// point that strategy had proposed (the GP-Hedge reward signal). Call after
// the surrogate has absorbed the newly evaluated point.
func (p *Portfolio) Update(s Surrogate) {
	for i, c := range p.last {
		if c == nil {
			continue
		}
		mu, _ := s.Predict(c)
		p.rewards[i] += mu
	}
}
