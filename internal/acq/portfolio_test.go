package acq

import (
	"math"
	"math/rand"
	"testing"
)

func TestPortfolioWeightsStartUniform(t *testing.T) {
	p := NewPortfolio(3, 1.0)
	w := p.Weights()
	for _, wi := range w {
		if math.Abs(wi-1.0/3) > 1e-12 {
			t.Fatalf("initial weights %v, want uniform", w)
		}
	}
	if len(w) != 3 {
		t.Fatal("arity wrong")
	}
}

func TestPortfolioRewardsShiftWeights(t *testing.T) {
	p := NewPortfolio(2, 1.0)
	// Strategy 0 nominates a point the surrogate rates highly, strategy 1 a
	// poor one. After several updates the hedge must prefer strategy 0.
	good := []float64{1}
	bad := []float64{0}
	s := fieldSurrogate{
		mu:    func(x []float64) float64 { return x[0] },
		sigma: func([]float64) float64 { return 0.1 },
	}
	for i := 0; i < 5; i++ {
		p.RecordChoices([][]float64{good, bad})
		p.Update(s)
	}
	w := p.Weights()
	if w[0] < 0.9 {
		t.Fatalf("hedge did not favour the better strategy: %v", w)
	}
	// Sampling distribution follows the weights.
	rng := rand.New(rand.NewSource(1))
	picks0 := 0
	for i := 0; i < 1000; i++ {
		if p.Pick(rng) == 0 {
			picks0++
		}
	}
	if picks0 < 850 {
		t.Fatalf("Pick ignores weights: %d/1000", picks0)
	}
}

func TestPortfolioUpdateBeforeChoicesIsNoop(t *testing.T) {
	p := NewPortfolio(2, 1.0)
	s := fieldSurrogate{
		mu:    func(x []float64) float64 { return 1 },
		sigma: func([]float64) float64 { return 1 },
	}
	p.Update(s) // nothing recorded yet; must not panic or shift weights
	w := p.Weights()
	if math.Abs(w[0]-0.5) > 1e-12 {
		t.Fatalf("weights shifted with no data: %v", w)
	}
}

func TestPortfolioRecordArityMismatchPanics(t *testing.T) {
	p := NewPortfolio(2, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.RecordChoices([][]float64{{1}})
}

func TestPortfolioWeightsNumericallyStable(t *testing.T) {
	// Huge reward differences must not overflow the softmax.
	p := NewPortfolio(3, 1.0)
	p.rewards = []float64{1e6, 0, -1e6}
	w := p.Weights()
	if math.IsNaN(w[0]) || w[0] < 0.999 {
		t.Fatalf("softmax unstable: %v", w)
	}
	var sum float64
	for _, wi := range w {
		sum += wi
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
}
