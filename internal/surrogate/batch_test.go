package surrogate

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
	"easybo/internal/linalg"
)

// TestPredictBatchBitIdentical is the Predictor contract: a point's (µ, σ)
// are the same bits alone, at any position of a batch of any width, on both
// backends, in raw and standardized units, on a base posterior and on a
// hallucinated view (the exact GP on a factor that needed jitter is in
// gp.TestPredictBatchBitIdentical, where the jitter is visible). Widths 1–9
// cover every triangular-solve kernel width, full groups and every remainder.
func TestPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x, y, lo, hi := fixture(rng, 40)
	em, err := gp.Train(x, y, lo, hi, rng,
		&gp.TrainOptions{FixedTheta: fixtureTheta, FixedNoise: fixtureLogNoise})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, fixtureLogNoise, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Floored noise: the information matrix is as ill-conditioned as the
	// feature backend gets.
	stiff, err := FitFeatures(x, y, lo, hi, fixtureTheta, math.Log(1e-9), rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	busy := [][]float64{{0.2, 0.7}, {0.9, 0.1}, {0.5, 0.5}}
	models := map[string]Surrogate{
		"exact": NewExact(em), "features": fm, "features/stiff": stiff,
	}
	for _, name := range []string{"exact", "features"} {
		view, err := models[name].WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		models[name+"/pseudo"] = view
	}

	for name, m := range models {
		for _, std := range []bool{false, true} {
			newP := m.Predictor
			if std {
				newP = m.StandardizedPredictor
			}
			batch, alone := newP(), newP()
			for width := 1; width <= 9; width++ {
				xs := make([][]float64, width)
				for i := range xs {
					xs[i] = []float64{rng.Float64(), rng.Float64()}
				}
				xs[width/2] = x[1] // a training point: σ collapses toward 0
				mu, sigma := make([]float64, width), make([]float64, width)
				batch.PredictBatch(xs, mu, sigma)
				for i, xq := range xs {
					wantMu, wantSigma := alone.Predict(xq)
					if math.Float64bits(mu[i]) != math.Float64bits(wantMu) ||
						math.Float64bits(sigma[i]) != math.Float64bits(wantSigma) {
						t.Fatalf("%s std=%v width=%d point %d: batch (%x, %x), alone (%x, %x)",
							name, std, width, i,
							math.Float64bits(mu[i]), math.Float64bits(sigma[i]),
							math.Float64bits(wantMu), math.Float64bits(wantSigma))
					}
				}
			}
		}
	}
}

// TestFeaturePredictMatchesSerialReference pins the batch kernel to the
// arithmetic the feature backend's Predict had before it was batched —
// features, mean, one forward substitution, norm — written out here on the
// plain single-right-hand-side solve.
func TestFeaturePredictMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	x, y, lo, hi := fixture(rng, 50)
	fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, fixtureLogNoise, rng, 96)
	if err != nil {
		t.Fatal(err)
	}
	m := fm.basis.Features()
	xs, phi, sol := make([]float64, len(lo)), make([]float64, m), make([]float64, m)
	reference := func(xq []float64) (mu, sigma float64) {
		fm.basis.PhiInto(phi, fm.scaleInto(xs, xq))
		mu = linalg.Dot(phi, fm.wmean)
		fm.chol.SolveLowerInto(sol, phi)
		s2 := linalg.Dot(sol, sol)
		if s2 < 0 {
			s2 = 0
		}
		return mu, math.Sqrt(s2)
	}
	p := fm.StandardizedPredictor()
	qs := make([][]float64, 7)
	for i := range qs {
		qs[i] = []float64{rng.Float64(), rng.Float64()}
	}
	mu, sigma := make([]float64, len(qs)), make([]float64, len(qs))
	p.PredictBatch(qs, mu, sigma)
	for i, xq := range qs {
		wantMu, wantSigma := reference(xq)
		if math.Float64bits(mu[i]) != math.Float64bits(wantMu) ||
			math.Float64bits(sigma[i]) != math.Float64bits(wantSigma) {
			t.Fatalf("point %d: batch (%v, %v), serial reference (%v, %v)", i, mu[i], sigma[i], wantMu, wantSigma)
		}
	}
}
