//go:build !race

package surrogate

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"easybo/internal/gp"
)

// TestFeatureExtendAllocatesNoFactor pins what a tell costs the feature
// backend in memory: a one-point Extend of an m = 256 model updates the
// factor it owns in place, in the feature, update and cosine scratch the
// model hands on with the factor, so it allocates only the new model's
// header and the point in the frame's units — never the 263 KB packed
// factor a copy would take, nor the 6 KB of O(m) scratch a tell allocated
// before the scratch moved into the model. Left out of -race builds, whose
// runtime allocates on its own account.
func TestFeatureExtendAllocatesNoFactor(t *testing.T) {
	const m = 256
	rng := rand.New(rand.NewSource(16))
	x, y, lo, hi := fixture(rng, 41)
	fm, err := FitFeatures(x[:40], y[:40], lo, hi, fixtureTheta, fixtureLogNoise, rng, m)
	if err != nil {
		t.Fatal(err)
	}
	var s Surrogate = fm
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s, err = s.Extend(x[40:], y[40:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("one-point Extend at m = %d: %d B in %d allocations", m, r.AllocedBytesPerOp(), r.AllocsPerOp())
	if got := r.AllocedBytesPerOp(); got >= 1<<10 {
		t.Fatalf("one-point Extend at m = %d allocates %d B, want < 1 KB (the packed factor is %d B)", m, got, m*(m+1)/2*8)
	}
}

// TestFitFeaturesAllocatesOneFactor pins what a training costs the feature
// backend in memory: A is summed into the packed storage its factor keeps
// and factored there, so a fit at m = 256 allocates that factor, 263,168 B,
// plus O(m) vectors and the basis — not a dense m×m A beside it (another
// 512 KB). The fixture factors at zero jitter; only a fit that needs the
// jitter ladder assembles A dense.
func TestFitFeaturesAllocatesOneFactor(t *testing.T) {
	const m, n = 256, 100
	x, y, lo, hi := fixture(rand.New(rand.NewSource(17)), n)
	var fm *FeatureModel
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if fm, err = FitFeatures(x, y, lo, hi, fixtureTheta, fixtureLogNoise, rand.New(rand.NewSource(1)), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	if fm.chol.Jitter != 0 {
		t.Fatalf("fixture factored at jitter %v, want 0", fm.chol.Jitter)
	}
	const factor = m * (m + 1) / 2 * 8
	t.Logf("FitFeatures at m = %d, n = %d: %d B in %d allocations (the packed factor is %d B)",
		m, n, r.AllocedBytesPerOp(), r.AllocsPerOp(), factor)
	if got := r.AllocedBytesPerOp(); got > factor+64<<10 {
		t.Fatalf("FitFeatures at m = %d, n = %d allocates %d B, want at most the %d B factor + 64 KB", m, n, got, factor)
	}
}

// TestFeaturePredictionsAllocateNothing pins the feature backend's
// predictions at zero allocations once warm, with the collector off so the
// pooled feature buffers stay pooled: PredictGrad and PredictBatch on the
// model and on a view with busy points, raw and standardized. A predictor
// keeps no feature buffer of its own, so a fresh predictor's first
// gradient allocates only its own small state, not m-sized vectors.
func TestFeaturePredictionsAllocateNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const m = 256
	rng := rand.New(rand.NewSource(18))
	x, y, lo, hi := fixture(rng, 43)
	fm, err := FitFeatures(x[:40], y[:40], lo, hi, fixtureTheta, fixtureLogNoise, rng, m)
	if err != nil {
		t.Fatal(err)
	}
	view, err := fm.WithPseudo(x[40:])
	if err != nil {
		t.Fatal(err)
	}
	qs := x[:6]
	dmu, dsigma := make([]float64, len(lo)), make([]float64, len(lo))
	mu, sigma := make([]float64, len(qs)), make([]float64, len(qs))
	for name, s := range map[string]Surrogate{"model": fm, "view": view} {
		for _, p := range []Predictor{s.Predictor(), s.StandardizedPredictor()} {
			p.PredictBatch(qs, mu, sigma, nil) // the predictor's own scratch
			p.PredictGrad(qs[0], dmu, dsigma)
			if a := testing.AllocsPerRun(50, func() { p.PredictGrad(qs[1], dmu, dsigma) }); a != 0 {
				t.Errorf("%s: PredictGrad allocates %v times, want 0", name, a)
			}
			if a := testing.AllocsPerRun(50, func() { p.PredictBatch(qs, mu, sigma, nil) }); a != 0 {
				t.Errorf("%s: PredictBatch allocates %v times, want 0", name, a)
			}
		}
		fresh := allocated(func() { s.StandardizedPredictor().PredictGrad(qs[2], dmu, dsigma) })
		t.Logf("%s: a fresh predictor's first gradient at m = %d: %d B", name, m, fresh)
		if fresh >= 1<<10 {
			t.Errorf("%s: a fresh predictor's first gradient allocates %d B, want < 1 KB (one feature vector is %d B)", name, fresh, m*8)
		}
	}
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExactExtendAllocatesNoFactor pins what a tell costs the exact backend
// in memory: Extend appends the new row to the factor, the training set and
// α in the storage the model holds, so a one-point Extend at n = 150 with
// capacity to spare allocates O(n) — the new row's covariances, the scaled
// point, the headers — and never the factor, 88 KB packed (a dense copy of
// it is 176 KB). Twenty tells in a row pay for one reallocation of the
// factor at most, with headroom; a copy per tell took 4.2 MB.
func TestExactExtendAllocatesNoFactor(t *testing.T) {
	const n, tells = 150, 20
	rng := rand.New(rand.NewSource(36))
	x, y, lo, hi := fixture(rng, n+1+tells)
	var s Surrogate = fitExact(t, x[:n-10], y[:n-10], lo, hi, gp.SEARD{}, fixtureTheta, fixtureLogNoise)
	extend := func(i int) {
		var err error
		if s, err = s.Extend(x[i:i+1], y[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 10; i < n; i++ { // the first moves the factor to storage with room
		extend(i)
	}
	one := allocated(func() { extend(n) })
	t.Logf("one-point Extend at n = %d: %d B", n, one)
	if one >= 16<<10 {
		t.Fatalf("one-point Extend at n = %d allocates %d B, want < 16 KB (the factor is %d KB)", n, one, n*(n+1)/2*8>>10)
	}
	chain := allocated(func() {
		for i := n + 1; i <= n+tells; i++ {
			extend(i)
		}
	})
	t.Logf("%d one-point Extends from n = %d: %d B", tells, n+1, chain)
	if chain >= 380<<10 {
		t.Fatalf("%d one-point Extends from n = %d allocate %d B, want < 380 KB", tells, n+1, chain)
	}
}
