package gp

import (
	"math"
	"math/rand"
	"testing"
)

// TestBusyMatchesAugmentedFit pins the busy set to its definition (paper
// §III-C): the posterior of a GP fitted on the training set plus the busy
// points, observed at their predicted means. The mean is the base GP's, bit
// for bit; σ̂ is the augmented fit's σ to 1e-9, never above the base σ, and
// collapses at the busy points — for both kernels.
func TestBusyMatchesAugmentedFit(t *testing.T) {
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		rng := rand.New(rand.NewSource(300))
		d := 4
		x, y := trainData(rng, 30, d, func(v []float64) float64 { return v[0]*v[1] - v[2] })
		theta, logNoise := kern.DefaultTheta(d), math.Log(1e-2)
		g, err := Fit(kern, x, y, theta, logNoise)
		if err != nil {
			t.Fatal(err)
		}
		busy, _ := trainData(rng, 5, d, func(v []float64) float64 { return 0 })
		mus := make([]float64, len(busy))
		for i, b := range busy {
			mus[i], _ = g.Predict(b)
		}
		aug, err := Fit(kern, append(append([][]float64{}, x...), busy...), append(append([]float64{}, y...), mus...), theta, logNoise)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Condition(nil, busy)
		if err != nil {
			t.Fatal(err)
		}
		var buf PredictBuf
		out := make([]float64, 2)
		for i := 0; i < 40; i++ {
			xq, _ := trainData(rng, 1, d, func([]float64) float64 { return 0 })
			if i < len(busy) {
				xq[0] = busy[i]
			}
			g.PredictBatchWith(&buf, b, xq, out[:1], out[1:], nil)
			mu0, s0 := g.Predict(xq[0])
			_, want := aug.Predict(xq[0])
			if math.Float64bits(out[0]) != math.Float64bits(mu0) {
				t.Fatalf("%s at %v: µ %v, base %v", kern.Name(), xq[0], out[0], mu0)
			}
			if math.Abs(out[1]-want) > 1e-9 || out[1] > s0 {
				t.Fatalf("%s at %v: σ̂ %v, augmented fit %v, base %v", kern.Name(), xq[0], out[1], want, s0)
			}
			if i < len(busy) && out[1] > 2e-2 {
				t.Fatalf("%s: σ̂ at busy point %d is %v, want it near the noise", kern.Name(), i, out[1])
			}
		}
	}
}
