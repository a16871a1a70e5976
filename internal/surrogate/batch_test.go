package surrogate

import (
	"math"
	"math/rand"
	"strings"
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
				batch.PredictBatch(xs, mu, sigma, nil)
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
	p.PredictBatch(qs, mu, sigma, nil)
	for i, xq := range qs {
		wantMu, wantSigma := reference(xq)
		if math.Float64bits(mu[i]) != math.Float64bits(wantMu) ||
			math.Float64bits(sigma[i]) != math.Float64bits(wantSigma) {
			t.Fatalf("point %d: batch (%v, %v), serial reference (%v, %v)", i, mu[i], sigma[i], wantMu, wantSigma)
		}
	}
}

// TestPredictBatchKeep pins both halves of PredictBatch's keep. First, asking
// changes nothing: a keep that takes every point returns the bits keep == nil
// returns, and is asked with those same means. Second, the bound it is asked
// with holds in floating point: σ ≤ sigmaMax on every point, over both
// backends, raw and standardized views, base and hallucinated posteriors,
// floored noise, duplicated training points, feature models so noisy that
// σ ≈ ‖φ‖ everywhere, and far-field points where the exact GP's σ reaches its
// bound exactly. Third, a keep that rejects points leaves the others' bits
// alone and marks the rejected ones with a negative σ. It logs the largest
// σ/‖φ‖ the feature backend reached, the headroom its sigmaMargin has.
func TestPredictBatchKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	x, y, lo, hi := fixture(rng, 40)
	dup := append(append([][]float64(nil), x[:20]...), x[:20]...) // every point twice
	dupY := append(append([]float64(nil), y[:20]...), y[:20]...)
	const floored = -12.0 // σn² = e⁻²⁴, under the 1e-10 floor
	exact := func(x [][]float64, y []float64, logNoise float64) Surrogate {
		m, err := gp.Train(x, y, lo, hi, rng, &gp.TrainOptions{FixedTheta: fixtureTheta, FixedNoise: logNoise})
		if err != nil {
			t.Fatal(err)
		}
		return NewExact(m)
	}
	features := func(x [][]float64, y []float64, logNoise float64) Surrogate {
		fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, logNoise, rng, 64)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	models := map[string]Surrogate{
		"exact":            exact(x, y, fixtureLogNoise),
		"exact/floored":    exact(x, y, floored),
		"exact/dup":        exact(dup, dupY, floored),
		"features":         features(x, y, fixtureLogNoise),
		"features/floored": features(x, y, floored),
		"features/dup":     features(dup, dupY, floored),
		// Noise that swamps the data leaves A ≈ I, so σ ≈ ‖φ‖ everywhere:
		// where the margin earns its keep.
		"features/noisy": features(x, y, math.Log(1e3)),
		"features/vague": features(x, y, math.Log(1e8)),
	}
	busy := [][]float64{{0.2, 0.7}, {0.9, 0.1}, {0.5, 0.5}, x[3]}
	for _, name := range []string{"exact", "features", "features/floored"} {
		view, err := models[name].WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		models[name+"/pseudo"] = view
	}

	const perView = 4600
	points, exactAtBound := 0, 0
	worst := 0.0 // largest σ/‖φ‖ on the feature backend
	for name, m := range models {
		isFeatures := strings.HasPrefix(name, "features")
		for _, std := range []bool{false, true} {
			newP := m.Predictor
			if std {
				newP = m.StandardizedPredictor
			}
			plain, asked, picky := newP(), newP(), newP()
			var keptMu, bound []float64
			all := func(mu, sigmaMax float64) bool {
				keptMu, bound = append(keptMu, mu), append(bound, sigmaMax)
				return true
			}
			n := 0
			alternate := func(float64, float64) bool { n++; return n%2 == 0 }
			for done := 0; done < perView; {
				width := 1 + rng.Intn(16)
				xs := make([][]float64, width)
				for i := range xs {
					switch rng.Intn(8) {
					case 0: // far field: the kernel vector underflows
						xs[i] = []float64{4 + 4*rng.Float64(), -4 - 4*rng.Float64()}
					case 1: // on a training point
						xs[i] = x[rng.Intn(len(x))]
					default:
						xs[i] = []float64{rng.Float64(), rng.Float64()}
					}
				}
				mu, sigma := make([]float64, width), make([]float64, width)
				plain.PredictBatch(xs, mu, sigma, nil)
				kmu, ksigma := make([]float64, width), make([]float64, width)
				keptMu, bound = keptMu[:0], bound[:0]
				asked.PredictBatch(xs, kmu, ksigma, all)
				if len(bound) != width {
					t.Fatalf("%s std=%v: keep asked %d times for %d points", name, std, len(bound), width)
				}
				n = 0
				pmu, psigma := make([]float64, width), make([]float64, width)
				picky.PredictBatch(xs, pmu, psigma, alternate)
				for i := range xs {
					same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
					if !same(kmu[i], mu[i]) || !same(ksigma[i], sigma[i]) || !same(keptMu[i], mu[i]) {
						t.Fatalf("%s std=%v point %v: with keep (%v, %v) asked at µ %v, without (%v, %v)",
							name, std, xs[i], kmu[i], ksigma[i], keptMu[i], mu[i], sigma[i])
					}
					if !(sigma[i] <= bound[i]) {
						t.Fatalf("%s std=%v point %v: σ %v above its bound %v", name, std, xs[i], sigma[i], bound[i])
					}
					wantSigma := sigma[i]
					if i%2 == 0 {
						wantSigma = -1
						if !std {
							wantSigma = psigma[i] // −ystd on the exact GP's raw view
						}
					}
					if !same(pmu[i], mu[i]) || !same(psigma[i], wantSigma) || (i%2 == 0) != (psigma[i] < 0) {
						t.Fatalf("%s std=%v point %d of %d: every other kept (%v, %v), want (%v, %v)",
							name, std, i, width, pmu[i], psigma[i], mu[i], wantSigma)
					}
					if isFeatures && std {
						worst = math.Max(worst, sigma[i]*sigmaMargin/bound[i])
					}
					//easybolint:ok floateq σ = √k(x,x) exactly is the far-field case the exact bound is tight on
					if !isFeatures && sigma[i] == bound[i] {
						exactAtBound++
					}
				}
				done += width
				points += width
			}
		}
	}
	if points < 100000 {
		t.Fatalf("%d points checked, want at least 10⁵", points)
	}
	if exactAtBound == 0 {
		t.Fatal("no exact-GP point reached its bound: the far field is not being tested")
	}
	t.Logf("%d points; exact GP at σ = √k(x,x) on %d; largest σ/‖φ‖ on the feature backend 1 %+.3g (margin 2⁻²⁰ = %.3g)",
		points, exactAtBound, worst-1, sigmaMargin-1)
	if worst > sigmaMargin {
		t.Fatalf("σ/‖φ‖ reached %v, past the margin %v", worst, sigmaMargin)
	}
}
