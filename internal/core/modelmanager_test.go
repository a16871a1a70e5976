package core

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/gp"
	"easybo/internal/surrogate"
)

func maternKernel() gp.Kernel { return gp.Matern52{} }

// growData returns an append-only observation history over [0,1]².
func growData(rng *rand.Rand, n int) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		xi := []float64{rng.Float64(), rng.Float64()}
		x = append(x, xi)
		y = append(y, math.Sin(4*xi[0])+xi[1])
	}
	return x, y
}

// TestModelManagerAutoEscalates pins the escalation policy: the auto
// backend serves exact fits below the threshold — byte-identical to a pure
// exact manager — and switches to the feature-space backend at it, one way.
func TestModelManagerAutoEscalates(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(21)), 40)

	auto, err := NewModelManager(lo, hi, rand.New(rand.NewSource(5)), ModelManagerOptions{
		FitIters: 10, Backend: surrogate.BackendAuto, EscalateAt: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewModelManager(lo, hi, rand.New(rand.NewSource(5)), ModelManagerOptions{
		FitIters: 10, Backend: surrogate.BackendExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 5; n <= 40; n += 5 {
		sa, err := auto.Fit(x[:n], y[:n])
		if err != nil {
			t.Fatalf("auto n=%d: %v", n, err)
		}
		se, err := exact.Fit(x[:n], y[:n])
		if err != nil {
			t.Fatalf("exact n=%d: %v", n, err)
		}
		if n < 25 {
			if auto.Active() != surrogate.BackendExact {
				t.Fatalf("n=%d: auto escalated below the threshold", n)
			}
			// Identical rng seeds and identical code path: predictions must
			// agree to the bit below the threshold.
			xq := []float64{0.3, 0.7}
			ma, da := sa.Predictor().Predict(xq)
			me, de := se.Predictor().Predict(xq)
			if math.Float64bits(ma) != math.Float64bits(me) || math.Float64bits(da) != math.Float64bits(de) {
				t.Fatalf("n=%d: auto and exact posteriors differ below the threshold: (%v,%v) vs (%v,%v)", n, ma, da, me, de)
			}
		} else if auto.Active() != surrogate.BackendFeatures {
			t.Fatalf("n=%d: auto still on %s past the threshold", n, auto.Active())
		}
	}
	if _, _, ok := auto.Hyper(); !ok {
		t.Fatal("Hyper must report ok after escalation")
	}
}

// TestModelManagerExplicitFeatures runs the feature backend from the first
// observation.
func TestModelManagerExplicitFeatures(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(22)), 30)
	mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(6)), ModelManagerOptions{
		FitIters: 10, Backend: surrogate.BackendFeatures, Features: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mm.Active() != surrogate.BackendFeatures {
		t.Fatalf("explicit features backend reports %s", mm.Active())
	}
	for n := 10; n <= 30; n += 10 {
		s, err := mm.Fit(x[:n], y[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.N() != n {
			t.Fatalf("n=%d: surrogate reports N=%d", n, s.N())
		}
		// The proposer path must accept the backend end to end.
		p := &Proposer{Lambda: 6, Penalize: true}
		xq, _, err := p.Propose(s, [][]float64{x[0]}, lo, hi, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("n=%d: propose: %v", n, err)
		}
		for j := range xq {
			if xq[j] < lo[j] || xq[j] > hi[j] {
				t.Fatalf("proposal out of box: %v", xq)
			}
		}
	}
}

// TestModelManagerAutoKeepsExactForCustomKernels: the feature basis only
// approximates SE-ARD, so a custom kernel must pin auto to the exact GP.
func TestModelManagerAutoKeepsExactForCustomKernels(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(23)), 20)
	mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(8)), ModelManagerOptions{
		FitIters: 8, Backend: surrogate.BackendAuto, EscalateAt: 10, Kernel: maternKernel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if mm.Active() != surrogate.BackendExact {
		t.Fatalf("auto escalated a non-SE-ARD kernel onto the feature basis")
	}
}

// TestModelManagerRejectsBadConfigs pins the fail-fast validation: an
// explicit feature backend with a non-SE-ARD kernel, and a sub-minimum
// basis size, are construction-time errors rather than silent overrides.
func TestModelManagerRejectsBadConfigs(t *testing.T) {
	lo, hi := []float64{0}, []float64{1}
	if _, err := NewModelManager(lo, hi, rand.New(rand.NewSource(1)), ModelManagerOptions{
		Backend: surrogate.BackendFeatures, Kernel: maternKernel(),
	}); err == nil {
		t.Fatal("features backend must reject a non-SE-ARD kernel")
	}
	if _, err := NewModelManager(lo, hi, rand.New(rand.NewSource(1)), ModelManagerOptions{
		Backend: surrogate.BackendFeatures, Features: 4,
	}); err == nil {
		t.Fatal("a sub-minimum feature count must be rejected, not clamped")
	}
}

// TestModelManagerFeatureCadence drives the feature backend through an
// append-only history: it trains from scratch exactly when
// featureHyperEvery observations have come in since the last training —
// past featureSubsample of them on a subsample — extends in between, hands
// back the model it holds while the data is unchanged, and fits.
func TestModelManagerFeatureCadence(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(17)), 300)
	mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(17)), ModelManagerOptions{
		FitIters: 10, Backend: surrogate.BackendFeatures, Features: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := mm.Hyper(); ok {
		t.Fatal("Hyper must report not-ok before the first fit")
	}
	var last surrogate.Surrogate
	trainedAt := 0
	for n := 20; n <= 300; n += 40 {
		s, err := mm.Fit(x[:n], y[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if s.N() != n {
			t.Fatalf("n=%d: surrogate reports N=%d", n, s.N())
		}
		if trainedAt == 0 || n-trainedAt >= featureHyperEvery {
			trainedAt = n
		}
		if got := mm.State().LastHyperN; got != trainedAt {
			t.Fatalf("n=%d: last training at %d, want %d", n, got, trainedAt)
		}
		last = s
	}
	if trainedAt <= featureSubsample {
		t.Fatalf("the last training ran at n=%d, not past the subsample bound %d", trainedAt, featureSubsample)
	}
	if _, _, ok := mm.Hyper(); !ok {
		t.Fatal("Hyper must report ok after fitting")
	}
	again, err := mm.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if again != last {
		t.Fatal("unchanged dataset must return the cached surrogate")
	}
	// The fitted posterior interpolates the smooth target reasonably.
	var sumSq float64
	p := last.Predictor()
	for i := range y {
		mu, _ := p.Predict(x[i])
		sumSq += (mu - y[i]) * (mu - y[i])
	}
	if rmse := math.Sqrt(sumSq / float64(len(y))); rmse > 0.25 {
		t.Fatalf("training RMSE %v implausibly large", rmse)
	}
}

// TestModelManagerExactBasics runs the exact backend end to end: a fit, its
// hyperparameters, and a hallucinated view of the model it returns.
func TestModelManagerExactBasics(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(18)), 30)
	mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(18)), ModelManagerOptions{
		RefitEvery: 5, FitIters: 15, Backend: surrogate.BackendExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mm.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 30 {
		t.Fatalf("N = %d, want 30", s.N())
	}
	if _, _, ok := mm.Hyper(); !ok {
		t.Fatal("Hyper must report ok after fitting")
	}
	h, err := s.WithPseudo([][]float64{{0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 31 {
		t.Fatalf("hallucinated N = %d, want 31", h.N())
	}
}

// TestModelManagerTrainsAfterRestore: a restored manager has
// hyperparameters but no model, whatever its cadence says about the next fit
// being incremental (the live manager got here through an Extend that
// failed). It must train, warm-started, not extend a model it does not have.
func TestModelManagerTrainsAfterRestore(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	x, y := growData(rand.New(rand.NewSource(19)), 30)
	for _, backend := range []surrogate.Backend{surrogate.BackendExact, surrogate.BackendFeatures} {
		mm, err := NewModelManager(lo, hi, rand.New(rand.NewSource(19)), ModelManagerOptions{
			RefitEvery: 5, FitIters: 10, Backend: backend, Features: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mm.Fit(x[:20], y[:20]); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		st := mm.State()
		if st.Theta == nil || st.LastHyperN != 20 {
			t.Fatalf("%s: state after the first fit: %+v", backend, st)
		}
		if err := mm.Restore(st); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		s, err := mm.Fit(x[:22], y[:22]) // two new points: inside both cadences
		if err != nil {
			t.Fatalf("%s: fit after restore: %v", backend, err)
		}
		if s.N() != 22 || mm.State().LastHyperN != 22 {
			t.Fatalf("%s: fit after restore did not train from scratch: N=%d, state %+v", backend, s.N(), mm.State())
		}
	}
}
