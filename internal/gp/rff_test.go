package gp

import (
	"math"
	"math/rand"
	"testing"
)

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
	m, err := Train(xs, ys, []float64{0}, []float64{10}, rng,
		&TrainOptions{Fit: &FitOptions{Iters: 50}})
	if err != nil {
		t.Fatal(err)
	}
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
	var worst float64
	for i := 0; i <= 20; i++ {
		xq := []float64{float64(i) / 2}
		mu, sigma := m.Predict(xq)
		var avg float64
		for _, s := range samples {
			avg += s(xq)
		}
		avg /= nSamples
		// Monte-Carlo error scales with σ/√n, plus RFF approximation error.
		tol := 4*sigma/math.Sqrt(nSamples) + 0.15*(1+math.Abs(mu))
		if e := math.Abs(avg - mu); e > tol {
			if e > worst {
				worst = e
			}
			t.Fatalf("sample mean %v deviates from posterior mean %v (σ=%v) at %v",
				avg, mu, sigma, xq)
		}
	}
}

func TestSampleRFFSamplesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := [][]float64{{0.2}, {0.8}}
	ys := []float64{1, -1}
	m, err := Train(xs, ys, []float64{0}, []float64{1}, rng,
		&TrainOptions{Fit: &FitOptions{Iters: 20}})
	if err != nil {
		t.Fatal(err)
	}
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
	m, err := Train(xs, ys, []float64{0}, []float64{1}, rng,
		&TrainOptions{FixedTheta: []float64{math.Log(0.2), 0}, FixedNoise: math.Log(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
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
	m, err := Train(xs, ys, []float64{0}, []float64{1}, rng,
		&TrainOptions{Kernel: Matern52{}, Fit: &FitOptions{Iters: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SampleRFF(rng, 100); err == nil {
		t.Fatal("Matern kernel must be rejected")
	}
}

func TestSampleRFFRejectsTinyFeatureCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := [][]float64{{0.1}, {0.9}}
	ys := []float64{0, 1}
	m, err := Train(xs, ys, []float64{0}, []float64{1}, rng,
		&TrainOptions{Fit: &FitOptions{Iters: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Below MinRFFFeatures the request is an error, never a silent clamp.
	for _, n := range []int{0, 1, MinRFFFeatures - 1} {
		if _, err := m.SampleRFF(rng, n); err == nil {
			t.Fatalf("m=%d must be rejected (minimum %d)", n, MinRFFFeatures)
		}
	}
	if _, err := m.SampleRFF(rng, MinRFFFeatures); err != nil {
		t.Fatalf("m=%d (the documented minimum) must be accepted: %v", MinRFFFeatures, err)
	}
}

func TestRFFPhiApproximatesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 3
	theta := []float64{math.Log(0.4), math.Log(0.7), math.Log(0.3), math.Log(1.3)}
	basis, err := NewRFF(rng, theta, d, 4096)
	if err != nil {
		t.Fatal(err)
	}
	k := SEARD{}
	for trial := 0; trial < 20; trial++ {
		a := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		var dot float64
		pa, pb := basis.Phi(a), basis.Phi(b)
		for i := range pa {
			dot += pa[i] * pb[i]
		}
		want := refEval(k, theta, a, b)
		// Monte-Carlo error of the feature expansion is O(1/√m).
		if e := math.Abs(dot - want); e > 0.08 {
			t.Fatalf("trial %d: φ(a)·φ(b) = %v, k(a,b) = %v (err %v)", trial, dot, want, e)
		}
	}
}
