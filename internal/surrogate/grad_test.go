package surrogate

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
)

// gradFixture is a smooth 3-D surface over a box whose axes span fifteen
// orders of magnitude (a length, a capacitance, a resistance), so a missing
// or doubled 1/span in a gradient cannot hide.
func gradFixture(rng *rand.Rand, n int) (x [][]float64, y []float64, lo, hi []float64) {
	lo, hi = []float64{-2, 1e-12, 100}, []float64{3, 5e-12, 2100}
	for i := 0; i < n; i++ {
		u := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xi := make([]float64, 3)
		for j := range xi {
			xi[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		x = append(x, xi)
		y = append(y, 40+7*(math.Sin(4*u[0])+0.5*math.Cos(3*u[1])+u[0]*u[2]))
	}
	return x, y, lo, hi
}

var gradTheta = []float64{math.Log(0.3), math.Log(0.35), math.Log(0.5), math.Log(1.0)}

// gradModels is every posterior shape a gradient is taken on: both kernels
// on the exact backend, the feature backend, and a hallucinated view of each.
func gradModels(t *testing.T, rng *rand.Rand) (map[string]Surrogate, [][]float64, []float64, []float64) {
	t.Helper()
	x, y, lo, hi := gradFixture(rng, 30)
	models := map[string]Surrogate{}
	for name, kern := range map[string]gp.Kernel{"exact/se": gp.SEARD{}, "exact/matern": gp.Matern52{}} {
		models[name] = fitExact(t, x, y, lo, hi, kern, gradTheta, fixtureLogNoise)
	}
	fm, err := FitFeatures(x, y, lo, hi, gradTheta, fixtureLogNoise, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	models["features"] = fm
	busy := [][]float64{{0, 2e-12, 400}, {2.5, 4.5e-12, 2000}}
	for _, name := range []string{"exact/se", "exact/matern", "features"} {
		view, err := models[name].WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		models[name+"/pseudo"] = view
	}
	return models, x, lo, hi
}

// TestPredictGradMatchesDifferences checks ∂µ/∂x and ∂σ/∂x of every model
// shape, in raw and standardized units, against central differences of
// Predict — in the interior, on faces and at a corner of the box (the model
// is smooth across them) — and that the value beside the gradient is
// PredictBatch's, bit for bit.
func TestPredictGradMatchesDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models, _, lo, hi := gradModels(t, rng)
	d := len(lo)
	at := func(u ...float64) []float64 {
		x := make([]float64, d)
		for j := range x {
			x[j] = lo[j] + u[j]*(hi[j]-lo[j])
		}
		return x
	}
	points := [][]float64{
		at(0.31, 0.62, 0.47), at(0.8, 0.15, 0.9), at(0.05, 0.5, 0.33),
		at(0, 0.4, 0.7), at(0.6, 1, 0.2), at(1, 1, 0), // two faces, a corner
	}
	for i := 0; i < 6; i++ {
		points = append(points, at(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	for name, m := range models {
		for _, std := range []bool{false, true} {
			newP := m.Predictor
			if std {
				newP = m.StandardizedPredictor
			}
			p, ref := newP(), newP()
			dmu, dsigma := make([]float64, d), make([]float64, d)
			xp := make([]float64, d)
			for _, x := range points {
				mu, sigma := p.PredictGrad(x, dmu, dsigma)
				var wantMu, wantSigma [1]float64
				ref.PredictBatch([][]float64{x}, wantMu[:], wantSigma[:], nil)
				if math.Float64bits(mu) != math.Float64bits(wantMu[0]) || math.Float64bits(sigma) != math.Float64bits(wantSigma[0]) {
					t.Fatalf("%s std=%v at %v: PredictGrad returned (%x, %x), PredictBatch (%x, %x)", name, std, x,
						math.Float64bits(mu), math.Float64bits(sigma), math.Float64bits(wantMu[0]), math.Float64bits(wantSigma[0]))
				}
				for j := range x {
					h := 1e-5 * (hi[j] - lo[j])
					copy(xp, x)
					xp[j] = x[j] + h
					muP, sigmaP := ref.Predict(xp)
					xp[j] = x[j] - h
					muM, sigmaM := ref.Predict(xp)
					h2 := (x[j] + h) - (x[j] - h)
					// Per unit-cube step, against the scale of the outputs.
					span := hi[j] - lo[j]
					errMu := math.Abs(dmu[j]-(muP-muM)/h2) * span
					errSigma := math.Abs(dsigma[j]-(sigmaP-sigmaM)/h2) * span
					scale := math.Abs(mu) + sigma
					if errMu > 1e-6*scale || errSigma > 1e-6*scale {
						t.Errorf("%s std=%v at %v, axis %d: ∂µ = %g (differences %g), ∂σ = %g (differences %g)",
							name, std, x, j, dmu[j], (muP-muM)/h2, dsigma[j], (sigmaP-sigmaM)/h2)
					}
				}
			}
		}
	}
}

// TestPredictGradAtTrainingPoints takes the gradient where σ collapses: on
// the training points of models whose noise sits on its floor under a signal
// variance of 10⁸, so that the rounding of k** − v·v (≈ 10⁻⁸) swamps the
// variance left at a training point (≈ 10⁻¹⁰) and drives some of them to the
// clamp at zero. The gradient must stay finite everywhere, and where σ is at
// or under the floor ∇σ must be exactly zero (not 0/0): the guard is
// exercised, and the test says so if it was not. (The feature backend's
// variance is a sum of squares and never reaches the floor; it is here for
// finiteness.)
func TestPredictGradAtTrainingPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y, lo, hi := gradFixture(rng, 40)
	long := []float64{math.Log(3), math.Log(3), math.Log(3), math.Log(1e4)}
	floor := math.Log(1e-9)
	models := map[string]Surrogate{}
	for name, kern := range map[string]gp.Kernel{"exact/se": gp.SEARD{}, "exact/matern": gp.Matern52{}} {
		models[name] = fitExact(t, x, y, lo, hi, kern, long, floor)
	}
	fm, err := FitFeatures(x, y, lo, hi, long, floor, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	models["features"] = fm
	d := len(lo)
	for name, m := range models {
		guarded := 0
		for _, p := range []Predictor{m.Predictor(), m.StandardizedPredictor()} {
			dmu, dsigma := make([]float64, d), make([]float64, d)
			for _, xi := range x {
				mu, sigma := p.PredictGrad(xi, dmu, dsigma)
				if math.IsNaN(mu) || math.IsNaN(sigma) || sigma < 0 {
					t.Fatalf("%s at training point %v: µ = %v, σ = %v", name, xi, mu, sigma)
				}
				for j := range dmu {
					if math.IsNaN(dmu[j]) || math.IsInf(dmu[j], 0) || math.IsNaN(dsigma[j]) || math.IsInf(dsigma[j], 0) {
						t.Fatalf("%s at training point %v (σ = %g): ∇µ = %v, ∇σ = %v", name, xi, sigma, dmu, dsigma)
					}
					if sigma <= 1e-12 && dsigma[j] != 0 {
						t.Fatalf("%s at training point %v: σ = %g but ∇σ = %v", name, xi, sigma, dsigma)
					}
				}
				if sigma <= 1e-12 {
					guarded++
				}
			}
		}
		if name != "features" && guarded == 0 {
			t.Errorf("%s: no training point's σ reached the floor; the guard went untested", name)
		}
	}
}
