package surrogate

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
)

// fixture builds the shared exact-vs-feature test problem: a smooth 2-D
// surface sampled at n points.
func fixture(rng *rand.Rand, n int) (x [][]float64, y []float64, lo, hi []float64) {
	lo, hi = []float64{0, 0}, []float64{1, 1}
	f := func(v []float64) float64 {
		return math.Sin(4*v[0]) + 0.5*math.Cos(3*v[1]) + v[0]*v[1]
	}
	for i := 0; i < n; i++ {
		xi := []float64{rng.Float64(), rng.Float64()}
		x = append(x, xi)
		y = append(y, f(xi))
	}
	return x, y, lo, hi
}

var fixtureTheta = []float64{math.Log(0.3), math.Log(0.35), math.Log(1.0)}

const fixtureLogNoise = -3.0 // σn ≈ 0.05

// TestFeatureAgreesWithExactGP is the backend-fidelity acceptance check:
// with a generous basis, the feature-space posterior must track the exact
// GP posterior over the whole box on the shared fixture.
func TestFeatureAgreesWithExactGP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y, lo, hi := fixture(rng, 60)
	exact := fitExact(t, x, y, lo, hi, gp.SEARD{}, fixtureTheta, fixtureLogNoise)
	fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, fixtureLogNoise, rng, 1024)
	if err != nil {
		t.Fatal(err)
	}

	var sumSq, worstMu, worstSigma float64
	count := 0
	for i := 0; i <= 12; i++ {
		for j := 0; j <= 12; j++ {
			xq := []float64{float64(i) / 12, float64(j) / 12}
			muE, sigmaE := predict(exact, xq)
			muF, sigmaF := predict(fm, xq)
			dMu := math.Abs(muE - muF)
			dSigma := math.Abs(sigmaE - sigmaF)
			sumSq += dMu * dMu
			if dMu > worstMu {
				worstMu = dMu
			}
			if dSigma > worstSigma {
				worstSigma = dSigma
			}
			count++
		}
	}
	// The outputs span ~3 units; the RFF approximation error at m=1024
	// should keep the posterior mean within a few percent of that
	// everywhere and much closer on average.
	if rmse := math.Sqrt(sumSq / float64(count)); rmse > 0.05 {
		t.Fatalf("posterior mean RMSE vs exact GP = %v, want < 0.05", rmse)
	}
	if worstMu > 0.15 {
		t.Fatalf("worst posterior-mean deviation %v, want < 0.15", worstMu)
	}
	if worstSigma > 0.15 {
		t.Fatalf("worst posterior-deviation gap %v, want < 0.15", worstSigma)
	}
}

// TestFeatureExtendMatchesBatchFit pins the rank-1 incremental update to a
// from-scratch rebuild on the same basis and standardization: identical rng
// seeding draws an identical basis, so the posteriors must agree to
// numerical precision (the rank-1 cholupdate is an exact algebraic identity,
// not an approximation).
func TestFeatureExtendMatchesBatchFit(t *testing.T) {
	dataRng := rand.New(rand.NewSource(12))
	x, y, lo, hi := fixture(dataRng, 50)
	const m = 128

	// Incremental: fit 40 points, rank-1 absorb the last 10. Extend spends
	// its receiver, so each absorption order starts from a base of its own,
	// fitted from the same seed: the same basis and the same 40-point state.
	base := func() *FeatureModel {
		fm, err := FitFeatures(x[:40], y[:40], lo, hi, fixtureTheta, fixtureLogNoise, rand.New(rand.NewSource(77)), m)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	incS, err := base().Extend(x[40:], y[40:])
	if err != nil {
		t.Fatal(err)
	}
	inc := incS.(*FeatureModel)
	if inc.N() != 50 {
		t.Fatalf("Extend miscounted: %d observations, want 50", inc.N())
	}

	// One-shot vs one-at-a-time absorption orders.
	oneAtATime := base()
	for i := 40; i < 50; i++ {
		s, err := oneAtATime.Extend(x[i:i+1], y[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		oneAtATime = s.(*FeatureModel)
	}
	// From-scratch rebuild: a fresh 50-point fit whose standardization is
	// forced to base's frozen constants, so only the update algebra differs.
	scratch := base()
	ys := make([]float64, 10)
	for i, v := range y[40:] {
		ys[i] = (v - scratch.ymean) / scratch.ystd
	}
	rebuilt, err := scratch.absorb(scratch.scaleAll(x[40:]), ys)
	if err != nil {
		t.Fatal(err)
	}

	qrng := rand.New(rand.NewSource(13))
	for q := 0; q < 30; q++ {
		xq := []float64{qrng.Float64(), qrng.Float64()}
		mu1, s1 := predict(inc, xq)
		mu2, s2 := predict(oneAtATime, xq)
		mu3, s3 := predict(rebuilt, xq)
		if math.Abs(mu1-mu2) > 1e-9*(1+math.Abs(mu1)) || math.Abs(s1-s2) > 1e-9*(1+s1) {
			t.Fatalf("bulk vs one-at-a-time extend diverge at %v: (%v,%v) vs (%v,%v)", xq, mu1, s1, mu2, s2)
		}
		if math.Abs(mu1-mu3) > 1e-9*(1+math.Abs(mu1)) || math.Abs(s1-s3) > 1e-9*(1+s1) {
			t.Fatalf("Extend vs rebuild diverge at %v: (%v,%v) vs (%v,%v)", xq, mu1, s1, mu3, s3)
		}
	}
}

// TestFeatureExtendTracksExactPosterior checks the incremental feature
// posterior still approximates an exact GP over the full data (fidelity is
// preserved through updates, not just at the initial fit).
func TestFeatureExtendTracksExactPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y, lo, hi := fixture(rng, 60)
	base, err := FitFeatures(x[:40], y[:40], lo, hi, fixtureTheta, fixtureLogNoise, rng, 1024)
	if err != nil {
		t.Fatal(err)
	}
	incS, err := base.Extend(x[40:], y[40:])
	if err != nil {
		t.Fatal(err)
	}
	em := fitExact(t, x, y, lo, hi, gp.SEARD{}, fixtureTheta, fixtureLogNoise)
	var sumSq float64
	count := 0
	for i := 0; i <= 10; i++ {
		for j := 0; j <= 10; j++ {
			xq := []float64{float64(i) / 10, float64(j) / 10}
			muE, _ := predict(em, xq)
			muF, _ := predict(incS, xq)
			d := muE - muF
			sumSq += d * d
			count++
		}
	}
	if rmse := math.Sqrt(sumSq / float64(count)); rmse > 0.06 {
		t.Fatalf("extended feature posterior drifted from exact GP: RMSE %v", rmse)
	}
}

// TestFeatureWithPseudoContract pins the hallucination semantics: the
// predictive mean is the receiver's, bit for bit, the deviation shrinks at
// the busy points, and the receiver survives untouched.
func TestFeatureWithPseudoContract(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x, y, lo, hi := fixture(rng, 40)
	fm, err := FitFeatures(x, y, lo, hi, fixtureTheta, fixtureLogNoise, rng, 512)
	if err != nil {
		t.Fatal(err)
	}
	busy := [][]float64{{0.31, 0.62}, {0.81, 0.17}}
	hall, err := fm.WithPseudo(busy)
	if err != nil {
		t.Fatal(err)
	}
	if hall.N() != fm.N()+len(busy) {
		t.Fatalf("hallucinated N = %d, want %d", hall.N(), fm.N()+len(busy))
	}
	for q := 0; q < 25; q++ {
		xq := []float64{rng.Float64(), rng.Float64()}
		mu0, _ := predict(fm, xq)
		mu1, _ := predict(hall, xq)
		if math.Float64bits(mu0) != math.Float64bits(mu1) {
			t.Fatalf("hallucination moved the mean at %v: %v -> %v", xq, mu0, mu1)
		}
	}
	for _, b := range busy {
		_, s0 := predict(fm, b)
		_, s1 := predict(hall, b)
		if !(s1 < s0) {
			t.Fatalf("deviation did not shrink at busy point %v: %v -> %v", b, s0, s1)
		}
	}
	// WithPseudo on an empty set is the identity.
	same, err := fm.WithPseudo(nil)
	if err != nil || same.(*FeatureModel) != fm {
		t.Fatalf("empty hallucination must return the receiver (err %v)", err)
	}
}

func TestParseBackend(t *testing.T) {
	for in, want := range map[string]Backend{
		"": BackendAuto, "auto": BackendAuto, "exact": BackendExact, "features": BackendFeatures,
	} {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackend("gp"); err == nil {
		t.Fatal("unknown backend must be rejected")
	}
}
