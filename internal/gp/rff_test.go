package gp

import (
	"math"
	"math/rand"
	"testing"
)

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
		pa := basis.PhiInto(make([]float64, basis.Features()), a)
		pb := basis.PhiInto(make([]float64, basis.Features()), b)
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

// TestNewRFFRejectsTinyFeatureCounts: below MinRFFFeatures a basis is an
// error, never a silently adjusted feature count; the minimum itself is a
// basis of that many features.
func TestNewRFFRejectsTinyFeatureCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	theta := []float64{math.Log(0.4), 0}
	for _, m := range []int{0, 1, MinRFFFeatures - 1} {
		if _, err := NewRFF(rng, theta, 1, m); err == nil {
			t.Fatalf("m=%d must be rejected (minimum %d)", m, MinRFFFeatures)
		}
	}
	basis, err := NewRFF(rng, theta, 1, MinRFFFeatures)
	if err != nil {
		t.Fatalf("m=%d (the documented minimum) must be accepted: %v", MinRFFFeatures, err)
	}
	if basis.Features() != MinRFFFeatures {
		t.Fatalf("basis has %d features, want %d", basis.Features(), MinRFFFeatures)
	}
}
