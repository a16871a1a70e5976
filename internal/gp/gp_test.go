package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEval is the pointwise definition of the covariance k(a, b | θ), every
// hyperparameter exponentiated afresh: the reference the prepared
// evalScaled path is held to.
func refEval(k Kernel, theta, a, b []float64) float64 {
	d := len(a)
	var s float64
	for i := 0; i < d; i++ {
		r := (a[i] - b[i]) / math.Exp(theta[i])
		s += r * r
	}
	sf2 := math.Exp(2 * theta[d])
	switch k.(type) {
	case SEARD:
		return sf2 * math.Exp(-0.5*s)
	case Matern52:
		sr5 := math.Sqrt(5) * math.Sqrt(s)
		return sf2 * (1 + sr5 + 5*s/3) * math.Exp(-sr5)
	}
	panic("refEval: unknown kernel " + k.Name())
}

// refAccumGrad adds w·∂k(a,b)/∂θⱼ to grad[j] for every hyperparameter j, from
// the pointwise definition: ∂k/∂log lᵢ = −2·dk/ds·rᵢ², ∂k/∂log σf = 2k, with
// dk/ds = −k/2 for SE-ARD and −(5/6)·σf²·(1+√5r)·e^{−√5r} for Matérn-5/2.
func refAccumGrad(k Kernel, theta, a, b []float64, w float64, grad []float64) {
	d := len(a)
	ri2 := make([]float64, d)
	var s float64
	for i := 0; i < d; i++ {
		r := (a[i] - b[i]) / math.Exp(theta[i])
		ri2[i] = r * r
		s += ri2[i]
	}
	kv := refEval(k, theta, a, b)
	var dkds float64
	switch k.(type) {
	case SEARD:
		dkds = -0.5 * kv
	case Matern52:
		sr5 := math.Sqrt(5) * math.Sqrt(s)
		dkds = -(5.0 / 6.0) * math.Exp(2*theta[d]) * (1 + sr5) * math.Exp(-sr5)
	}
	for i := 0; i < d; i++ {
		grad[i] += w * -2 * dkds * ri2[i]
	}
	grad[d] += w * 2 * kv
}

// Predict is PredictBatchWith on a batch of one, on scratch of its own: the
// tests' way to ask a GP for one posterior.
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	var buf PredictBuf
	var out [2]float64
	g.PredictBatchWith(&buf, [][]float64{x}, out[:1], out[1:], nil)
	return out[0], out[1]
}

func trainData(rng *rand.Rand, n, d int, f func([]float64) float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.Float64()
		}
		x[i] = xi
		y[i] = f(xi)
	}
	return x, y
}

func TestKernelBasicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		d := 4
		theta := kern.DefaultTheta(d)
		if len(theta) != kern.NumHyper(d) {
			t.Fatalf("%s: theta length mismatch", kern.Name())
		}
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a := make([]float64, d)
			b := make([]float64, d)
			for i := range a {
				a[i] = r.Float64()
				b[i] = r.Float64()
			}
			kaa := refEval(kern, theta, a, a)
			kab := refEval(kern, theta, a, b)
			kba := refEval(kern, theta, b, a)
			// Symmetry, positivity, and k(a,a) >= |k(a,b)| (correlation bound).
			return kab > 0 && math.Abs(kab-kba) < 1e-15 && kaa >= kab-1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
			t.Fatalf("%s: %v", kern.Name(), err)
		}
		// Variance at zero distance is σf².
		a := []float64{0.3, 0.4, 0.5, 0.6}
		sf := math.Exp(theta[d])
		if got := refEval(kern, theta, a, a); math.Abs(got-sf*sf) > 1e-12 {
			t.Fatalf("%s: k(a,a) = %v, want σf² = %v", kern.Name(), got, sf*sf)
		}
	}
}

func TestKernelGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		d := 3
		theta := kern.DefaultTheta(d)
		for i := range theta {
			theta[i] += 0.2 * rng.NormFloat64()
		}
		a := []float64{0.1, 0.7, 0.4}
		b := []float64{0.5, 0.2, 0.9}
		grad := make([]float64, len(theta))
		refAccumGrad(kern, theta, a, b, 1.0, grad)
		const h = 1e-6
		for j := range theta {
			tp := append([]float64(nil), theta...)
			tm := append([]float64(nil), theta...)
			tp[j] += h
			tm[j] -= h
			fd := (refEval(kern, tp, a, b) - refEval(kern, tm, a, b)) / (2 * h)
			if math.Abs(fd-grad[j]) > 1e-6*(1+math.Abs(fd)) {
				t.Fatalf("%s: grad[%d] = %v, finite difference %v", kern.Name(), j, grad[j], fd)
			}
		}
	}
}

// TestPreparedKernelMatchesPointwise holds the path every fit takes —
// evalScaled and accumGradDiff on a prepared distState — to the pointwise
// definition, refEval and refAccumGrad.
func TestPreparedKernelMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		d := 5
		for trial := 0; trial < 50; trial++ {
			theta := kern.DefaultTheta(d)
			a, b := make([]float64, d), make([]float64, d)
			for i := range a {
				theta[i] += 0.5 * rng.NormFloat64()
				a[i], b[i] = rng.Float64(), rng.Float64()
			}
			theta[d] += 0.5 * rng.NormFloat64()
			if trial == 0 {
				b = a // the diagonal case: zero distance
			}
			st := prepDist(theta, d)
			want := refEval(kern, theta, a, b)
			k := kern.evalScaled(&st, st.scaledSq(a, b))
			if math.Abs(k-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%s: evalScaled %v, pointwise %v", kern.Name(), k, want)
			}
			diff2 := make([]float64, d)
			for i := range diff2 {
				diff2[i] = (a[i] - b[i]) * (a[i] - b[i])
			}
			got, ref := make([]float64, d+1), make([]float64, d+1)
			kern.accumGradDiff(&st, diff2, k, 0.7, got)
			refAccumGrad(kern, theta, a, b, 0.7, ref)
			for j := range ref {
				if math.Abs(got[j]-ref[j]) > 1e-12*(1+math.Abs(ref[j])) {
					t.Fatalf("%s: accumGradDiff[%d] = %v, pointwise %v", kern.Name(), j, got[j], ref[j])
				}
			}
		}
	}
}

func TestGPInterpolatesWithLowNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := trainData(rng, 12, 2, func(v []float64) float64 {
		return math.Sin(3*v[0]) + v[1]*v[1]
	})
	g, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(2), math.Log(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		mu, sigma := g.Predict(xi)
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Fatalf("GP does not interpolate: point %d, mu=%v want %v", i, mu, y[i])
		}
		if sigma > 1e-2 {
			t.Fatalf("posterior deviation at a training point should collapse, got %v", sigma)
		}
	}
}

func TestGPPosteriorVarianceShrinksWithData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(v []float64) float64 { return v[0] }
	x, y := trainData(rng, 20, 1, f)
	gSmall, err := Fit(SEARD{}, x[:5], y[:5], SEARD{}.DefaultTheta(1), math.Log(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	gBig, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(1), math.Log(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	// Average posterior deviation over a grid must not grow with more data.
	var sSmall, sBig float64
	for i := 0; i <= 20; i++ {
		xq := []float64{float64(i) / 20}
		_, s1 := gSmall.Predict(xq)
		_, s2 := gBig.Predict(xq)
		sSmall += s1
		sBig += s2
	}
	if sBig > sSmall+1e-9 {
		t.Fatalf("variance grew with data: %v -> %v", sSmall, sBig)
	}
}

func TestGPPredictMeanMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := trainData(rng, 15, 3, func(v []float64) float64 { return v[0] - 2*v[1] + v[2] })
	g, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(3), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		xq := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		mu1, _ := g.Predict(xq)
		mu2 := g.PredictMean(xq)
		if math.Abs(mu1-mu2) > 1e-12 {
			t.Fatalf("PredictMean mismatch: %v vs %v", mu1, mu2)
		}
	}
}

func TestGPSingleKnownPoint(t *testing.T) {
	// One observation, zero-ish noise: posterior at that point is the
	// observation; far away the mean decays toward the prior mean 0 and the
	// deviation recovers to σf.
	x := [][]float64{{0.5}}
	y := []float64{2.0}
	theta := []float64{math.Log(0.1), 0} // l = 0.1, σf = 1
	g, err := Fit(SEARD{}, x, y, theta, math.Log(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := g.Predict([]float64{0.5})
	if math.Abs(mu-2) > 1e-5 || sigma > 1e-2 {
		t.Fatalf("at observation: mu=%v sigma=%v", mu, sigma)
	}
	muFar, sigmaFar := g.Predict([]float64{0.0})
	if math.Abs(muFar) > 1e-4 {
		t.Fatalf("far mean should decay to prior: %v", muFar)
	}
	if math.Abs(sigmaFar-1) > 1e-4 {
		t.Fatalf("far deviation should recover σf=1: %v", sigmaFar)
	}
}

func TestLMLGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := trainData(rng, 10, 2, func(v []float64) float64 { return math.Cos(4 * v[0] * v[1]) })
	theta := SEARD{}.DefaultTheta(2)
	logNoise := math.Log(5e-2)
	g, err := Fit(SEARD{}, x, y, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	grad := g.LMLGradient()
	const h = 1e-5
	lmlAt := func(th []float64, ln float64) float64 {
		gg, err := Fit(SEARD{}, x, y, th, ln)
		if err != nil {
			t.Fatal(err)
		}
		return gg.LogMarginalLikelihood()
	}
	for j := 0; j < len(theta); j++ {
		tp := append([]float64(nil), theta...)
		tm := append([]float64(nil), theta...)
		tp[j] += h
		tm[j] -= h
		fd := (lmlAt(tp, logNoise) - lmlAt(tm, logNoise)) / (2 * h)
		if math.Abs(fd-grad[j]) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("LML grad[%d] = %v, finite difference %v", j, grad[j], fd)
		}
	}
	fd := (lmlAt(theta, logNoise+h) - lmlAt(theta, logNoise-h)) / (2 * h)
	if math.Abs(fd-grad[len(theta)]) > 1e-4*(1+math.Abs(fd)) {
		t.Fatalf("noise grad = %v, finite difference %v", grad[len(theta)], fd)
	}
}

func TestFitHyperImprovesLML(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := trainData(rng, 25, 2, func(v []float64) float64 { return math.Sin(5*v[0]) + 0.5*v[1] })
	base, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(2), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := FitHyper(SEARD{}, x, y, rng, &FitOptions{Iters: 50, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fitted.LogMarginalLikelihood() < base.LogMarginalLikelihood() {
		t.Fatalf("hyper fit worsened LML: %v -> %v",
			base.LogMarginalLikelihood(), fitted.LogMarginalLikelihood())
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(SEARD{}, nil, nil, nil, 0); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Fit(SEARD{}, [][]float64{{1}}, []float64{1, 2}, SEARD{}.DefaultTheta(1), 0); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := Fit(SEARD{}, [][]float64{{1}, {1, 2}}, []float64{1, 2}, SEARD{}.DefaultTheta(1), 0); err == nil {
		t.Fatal("ragged inputs must fail")
	}
}

func TestWithPseudoShrinksSigmaKeepsMean(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := trainData(rng, 15, 2, func(v []float64) float64 { return v[0] + v[1] })
	g, err := Fit(SEARD{}, x, y, SEARD{}.DefaultTheta(2), math.Log(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	busy := [][]float64{{0.25, 0.75}, {0.8, 0.1}}
	mus := make([]float64, len(busy))
	for i, b := range busy {
		mus[i], _ = g.Predict(b)
	}
	g2, err := g.WithPseudo(busy, mus)
	if err != nil {
		t.Fatal(err)
	}
	// Property (paper §III-C): predictive mean is unchanged everywhere
	// (pseudo targets equal the prior predictive mean), deviation shrinks
	// near the busy points and never grows anywhere.
	for i := 0; i < 40; i++ {
		xq := []float64{rng.Float64(), rng.Float64()}
		mu1, s1 := g.Predict(xq)
		mu2, s2 := g2.Predict(xq)
		if math.Abs(mu1-mu2) > 1e-6*(1+math.Abs(mu1)) {
			t.Fatalf("hallucination changed the mean at %v: %v -> %v", xq, mu1, mu2)
		}
		if s2 > s1+1e-8 {
			t.Fatalf("hallucination grew the deviation at %v: %v -> %v", xq, s1, s2)
		}
	}
	for i, b := range busy {
		_, s := g2.Predict(b)
		if s > 1e-2 {
			t.Fatalf("deviation at busy point %d should collapse, got %v", i, s)
		}
	}
	// Empty pseudo set returns the same GP.
	g3, err := g.WithPseudo(nil, nil)
	if err != nil || g3 != g {
		t.Fatal("empty pseudo set should be a no-op")
	}
}
