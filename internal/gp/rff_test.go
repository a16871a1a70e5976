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
