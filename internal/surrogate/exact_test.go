package surrogate

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
)

// trainExact fits the exact GP with a marginal-likelihood search on rng, the
// way the model manager trains it.
func trainExact(t testing.TB, x [][]float64, y, lo, hi []float64, kern gp.Kernel, rng *rand.Rand, fo *gp.FitOptions) *Exact {
	t.Helper()
	e, err := NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.FitHyper(kern, xs, ys, rng, fo)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fitExact fits the exact GP at given hyperparameters.
func fitExact(t testing.TB, x [][]float64, y, lo, hi []float64, kern gp.Kernel, theta []float64, logNoise float64) *Exact {
	t.Helper()
	e, err := NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.Fit(kern, xs, ys, theta, logNoise)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// predict is one raw-unit prediction.
func predict(s Surrogate, x []float64) (mu, sigma float64) { return s.Predictor().Predict(x) }

// frameBackends fits each backend on raw data, the feature backend at the
// exact fit's hyperparameters: the table the frame's behaviour is checked on.
func frameBackends(t *testing.T, x [][]float64, y, lo, hi []float64, rng *rand.Rand, iters int) map[string]Surrogate {
	t.Helper()
	e := trainExact(t, x, y, lo, hi, gp.SEARD{}, rng, &gp.FitOptions{Iters: iters})
	theta, logNoise := e.Hyper()
	fm, err := FitFeatures(x, y, lo, hi, theta, logNoise, rng, DefaultFeatures)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Surrogate{"exact": e, "features": fm}
}

// TestFrameScalingRoundTrip: raw inputs in a wildly scaled box and outputs
// with a large offset come back out of both backends in raw units.
func TestFrameScalingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lo := []float64{-1000, 1e-9}
	hi := []float64{1000, 1e-6}
	f := func(v []float64) float64 { return 500 + v[0]/100 + v[1]*1e7 }
	n := 20
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{lo[0] + rng.Float64()*(hi[0]-lo[0]), lo[1] + rng.Float64()*(hi[1]-lo[1])}
		y[i] = f(x[i])
	}
	for name, m := range frameBackends(t, x, y, lo, hi, rng, 40) {
		// Prediction at training points should be close in raw units.
		var worst float64
		for i := range x {
			mu, _ := predict(m, x[i])
			if e := math.Abs(mu - y[i]); e > worst {
				worst = e
			}
		}
		spread := 20.0 // output range ≈ [490, 520]
		if worst > 0.2*spread {
			t.Fatalf("%s: poor fit in raw units: worst error %v", name, worst)
		}
		if m.N() != n {
			t.Fatalf("%s: N = %d", name, m.N())
		}
		// The standardized view is the raw one through the frame.
		raw, std := m.Predictor(), m.StandardizedPredictor()
		for q := 0; q < 20; q++ {
			xq := []float64{lo[0] + rng.Float64()*(hi[0]-lo[0]), lo[1] + rng.Float64()*(hi[1]-lo[1])}
			mu, sigma := raw.Predict(xq)
			smu, ssigma := std.Predict(xq)
			if want := m.StandardizeY(mu); math.Abs(smu-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: standardized mean %v, raw %v standardizes to %v", name, smu, mu, want)
			}
			if want := sigma * (m.StandardizeY(1) - m.StandardizeY(0)); math.Abs(ssigma-want) > 1e-9*(1+want) {
				t.Fatalf("%s: standardized deviation %v, raw %v scales to %v", name, ssigma, sigma, want)
			}
		}
	}
}

// TestExactWithPseudo: a busy point's pseudo-observation shrinks the
// deviation there and leaves the mean, and its target is, bit for bit, the
// standardized mean the receiver predicts at it.
func TestExactWithPseudo(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lo := []float64{0, 0}
	hi := []float64{10, 10}
	x := [][]float64{{1, 1}, {5, 5}, {9, 9}, {2, 8}, {8, 2}}
	y := []float64{1, 5, 9, 5, 5}
	m := trainExact(t, x, y, lo, hi, gp.SEARD{}, rng, &gp.FitOptions{Iters: 30})
	busy := [][]float64{{5, 1}, {2, 8}}
	h, err := m.WithPseudo(busy)
	if err != nil {
		t.Fatal(err)
	}
	_, s1 := predict(m, busy[0])
	_, s2 := predict(h, busy[0])
	if s2 >= s1 {
		t.Fatalf("pseudo point did not reduce deviation: %v -> %v", s1, s2)
	}
	mu1, _ := predict(m, []float64{3, 3})
	mu2, _ := predict(h, []float64{3, 3})
	if math.Abs(mu1-mu2) > 1e-6*(1+math.Abs(mu1)) {
		t.Fatalf("pseudo point changed the mean: %v -> %v", mu1, mu2)
	}
	std := m.StandardizedPredictor()
	for i, b := range busy {
		want, _ := std.Predict(b)
		if got := h.(*Exact).gp.Y[m.N()+i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("busy %d: pseudo-target %v, standardized mean %v", i, got, want)
		}
	}
	if same, err := m.WithPseudo(nil); err != nil || same.(*Exact) != m {
		t.Fatalf("empty hallucination must return the receiver (err %v)", err)
	}
}

// TestFrameRejectsBadTrainingSets: an empty set, a box of the wrong
// dimension and outputs that do not match the inputs fail on both backends.
func TestFrameRejectsBadTrainingSets(t *testing.T) {
	theta := []float64{0, 0, 0}
	fit := map[string]func(x [][]float64, y, lo, hi []float64) error{
		"exact": func(x [][]float64, y, lo, hi []float64) error {
			_, err := NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
				return gp.Fit(gp.SEARD{}, xs, ys, theta[:len(lo)+1], -3)
			})
			return err
		},
		"features": func(x [][]float64, y, lo, hi []float64) error {
			_, err := FitFeatures(x, y, lo, hi, theta[:len(lo)+1], -3, rand.New(rand.NewSource(1)), 16)
			return err
		},
	}
	for name, f := range fit {
		if err := f(nil, nil, nil, nil); err == nil {
			t.Errorf("%s: empty training set must fail", name)
		}
		if err := f([][]float64{{1, 2}}, []float64{1}, []float64{0}, []float64{1}); err == nil {
			t.Errorf("%s: bounds mismatch must fail", name)
		}
		if err := f([][]float64{{0.5}, {0.7}}, []float64{1}, []float64{0}, []float64{1}); err == nil {
			t.Errorf("%s: more inputs than observations must fail", name)
		}
	}
}

// TestFrameConstantOutputs: all observations identical must not blow up
// the standardization (its 1e-12 floor) on either backend.
func TestFrameConstantOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := [][]float64{{0.1}, {0.5}, {0.9}}
	y := []float64{3, 3, 3}
	for name, m := range frameBackends(t, x, y, []float64{0}, []float64{1}, rng, 10) {
		mu, sigma := predict(m, []float64{0.3})
		if math.IsNaN(mu) || math.IsNaN(sigma) {
			t.Fatalf("%s: NaN prediction on constant data", name)
		}
		if math.Abs(mu-3) > 0.5 {
			t.Fatalf("%s: constant-data mean should be ≈3, got %v", name, mu)
		}
	}
}

// TestFrameRejectsNonFiniteObservations: a NaN or ±Inf observation fails a
// fit and an Extend on both backends, and the Extend leaves its receiver
// usable.
func TestFrameRejectsNonFiniteObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := [][]float64{{0.1}, {0.5}, {0.9}}
	lo, hi := []float64{0}, []float64{1}
	theta := []float64{math.Log(0.3), 0}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		y := []float64{1, bad, 3}
		if _, err := NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
			return gp.FitHyper(gp.SEARD{}, xs, ys, rng, nil)
		}); err == nil {
			t.Fatalf("exact: non-finite observation %v must be rejected", bad)
		}
		if _, err := FitFeatures(x, y, lo, hi, theta, -3, rng, 16); err == nil {
			t.Fatalf("features: non-finite observation %v must be rejected", bad)
		}
		for name, m := range frameBackends(t, x, []float64{1, 2, 3}, lo, hi, rng, 5) {
			if _, err := m.Extend([][]float64{{0.3}}, []float64{bad}); err == nil {
				t.Fatalf("%s: Extend accepted non-finite observation %v", name, bad)
			}
			if m.N() != len(x) {
				t.Fatalf("%s: a failed Extend changed its receiver", name)
			}
		}
	}
}

// TestExactExtendMatchesPredictions: extending a model keeps its
// hyperparameters and frame, so its predictions match a gp-level fit on the
// grown data mapped through the same frame.
func TestExactExtendMatchesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	lo := []float64{-5, 0}
	hi := []float64{5, 10}
	n, k := 20, 4
	x := make([][]float64, n+k)
	y := make([]float64, n+k)
	for i := range x {
		x[i] = []float64{lo[0] + rng.Float64()*10, hi[1] * rng.Float64()}
		y[i] = 100 + x[i][0]*x[i][1]
	}
	m := trainExact(t, x[:n], y[:n], lo, hi, gp.SEARD{}, rng, &gp.FitOptions{Iters: 20})
	extS, err := m.Extend(x[n:], y[n:])
	if err != nil {
		t.Fatal(err)
	}
	ext := extS.(*Exact)
	if m.N() != n || ext.N() != n+k {
		t.Fatalf("sizes: base %d ext %d", m.N(), ext.N())
	}
	// Same data refit with the frozen hyperparameters and the SAME frame:
	// NewExact would re-standardize, so fit the GP on the grown model's own
	// unit-cube inputs and standardized outputs.
	theta, logNoise := m.Hyper()
	batchGP, err := gp.Fit(gp.SEARD{}, ext.gp.X, ext.gp.Y, theta, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	batch := &Exact{frame: ext.frame, gp: batchGP}
	for q := 0; q < 20; q++ {
		xq := []float64{lo[0] + rng.Float64()*10, hi[1] * rng.Float64()}
		mu1, s1 := predict(ext, xq)
		mu2, s2 := predict(batch, xq)
		if math.Abs(mu1-mu2) > 1e-9*(1+math.Abs(mu1)) || math.Abs(s1-s2) > 1e-9*(1+s1) {
			t.Fatalf("model extend mismatch: (%v,%v) vs (%v,%v)", mu1, s1, mu2, s2)
		}
	}
}

// TestExactLeaveOneOutRawUnits: the model reports the GP's leave-one-out
// diagnostics in raw output units — the standardized ones mapped back.
func TestExactLeaveOneOutRawUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 12
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10}
		y[i] = 100 + 25*math.Sin(x[i][0]) // large offset/scale exercises the mapping
	}
	m := trainExact(t, x, y, []float64{0}, []float64{10}, gp.SEARD{}, rng, &gp.FitOptions{Iters: 30})
	raw := m.LeaveOneOut()
	std := m.gp.LeaveOneOut()
	for i := 0; i < n; i++ {
		if want := std.Mean[i]*m.ystd + m.ymean; math.Abs(raw.Mean[i]-want) > 1e-9 {
			t.Fatalf("point %d: raw LOO mean %v, want %v", i, raw.Mean[i], want)
		}
		if want := std.Sigma[i] * m.ystd; math.Abs(raw.Sigma[i]-want) > 1e-9 {
			t.Fatalf("point %d: raw LOO sigma %v, want %v", i, raw.Sigma[i], want)
		}
	}
	if want := std.RMSE * m.ystd; math.Abs(raw.RMSE-want) > 1e-9 {
		t.Fatalf("raw LOO RMSE %v, want %v", raw.RMSE, want)
	}
	// Sanity: a good fit's LOO means should track the observations loosely.
	if raw.RMSE > 10 {
		t.Fatalf("LOO RMSE %v implausibly large for a smooth target", raw.RMSE)
	}
}

func TestSampleRFFApproximatesPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Smooth 1-D target on [0, 10].
	f := func(x float64) float64 { return math.Sin(x) + 0.3*x }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, f(x))
	}
	m := trainExact(t, xs, ys, []float64{0}, []float64{10}, gp.SEARD{}, rng, &gp.FitOptions{Iters: 50})
	// Average of many posterior samples should track the posterior mean, and
	// the spread of samples should be larger away from data.
	const nSamples = 60
	samples := make([]func([]float64) float64, nSamples)
	for i := range samples {
		s, err := m.SampleRFF(rng, 300)
		if err != nil {
			t.Fatal(err)
		}
		samples[i] = s
	}
	for i := 0; i <= 20; i++ {
		xq := []float64{float64(i) / 2}
		mu, sigma := predict(m, xq)
		var avg float64
		for _, s := range samples {
			avg += s(xq)
		}
		avg /= nSamples
		// Monte-Carlo error scales with σ/√n, plus RFF approximation error.
		tol := 4*sigma/math.Sqrt(nSamples) + 0.15*(1+math.Abs(mu))
		if e := math.Abs(avg - mu); e > tol {
			t.Fatalf("sample mean %v deviates from posterior mean %v (σ=%v) at %v",
				avg, mu, sigma, xq)
		}
	}
}

func TestSampleRFFSamplesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := [][]float64{{0.2}, {0.8}}
	ys := []float64{1, -1}
	m := trainExact(t, xs, ys, []float64{0}, []float64{1}, gp.SEARD{}, rng, &gp.FitOptions{Iters: 20})
	s1, err := m.SampleRFF(rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.SampleRFF(rng, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Two draws must differ somewhere (they are independent functions).
	var diff float64
	for i := 0; i <= 10; i++ {
		x := []float64{float64(i) / 10}
		diff += math.Abs(s1(x) - s2(x))
	}
	if diff < 1e-6 {
		t.Fatal("independent posterior draws are identical")
	}
	// A single draw must be deterministic once created.
	x := []float64{0.37}
	if s1(x) != s1(x) {
		t.Fatal("draw is not a fixed function")
	}
}

func TestSampleRFFInterpolatesTightData(t *testing.T) {
	// With tiny noise, every posterior draw must pass near the observations.
	rng := rand.New(rand.NewSource(3))
	xs := [][]float64{{0.1}, {0.5}, {0.9}}
	ys := []float64{2, -1, 3}
	m := fitExact(t, xs, ys, []float64{0}, []float64{1}, gp.SEARD{}, []float64{math.Log(0.2), 0}, math.Log(1e-3))
	for trial := 0; trial < 10; trial++ {
		s, err := m.SampleRFF(rng, 500)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			if e := math.Abs(s(x) - ys[i]); e > 0.5 {
				t.Fatalf("trial %d: draw misses observation %d by %v", trial, i, e)
			}
		}
	}
}

func TestSampleRFFRejectsNonSEKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := [][]float64{{0.1}, {0.9}}
	ys := []float64{0, 1}
	m := trainExact(t, xs, ys, []float64{0}, []float64{1}, gp.Matern52{}, rng, &gp.FitOptions{Iters: 5})
	if _, err := m.SampleRFF(rng, 100); err == nil {
		t.Fatal("Matern kernel must be rejected")
	}
}

func TestSampleRFFRejectsTinyFeatureCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := [][]float64{{0.1}, {0.9}}
	ys := []float64{0, 1}
	m := trainExact(t, xs, ys, []float64{0}, []float64{1}, gp.SEARD{}, rng, &gp.FitOptions{Iters: 5})
	// Below MinRFFFeatures the request is an error, never a silent clamp.
	for _, n := range []int{0, 1, gp.MinRFFFeatures - 1} {
		if _, err := m.SampleRFF(rng, n); err == nil {
			t.Fatalf("m=%d must be rejected (minimum %d)", n, gp.MinRFFFeatures)
		}
	}
	if _, err := m.SampleRFF(rng, gp.MinRFFFeatures); err != nil {
		t.Fatalf("m=%d (the documented minimum) must be accepted: %v", gp.MinRFFFeatures, err)
	}
}
