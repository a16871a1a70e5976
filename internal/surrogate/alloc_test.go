//go:build !race

package surrogate

import (
	"math/rand"
	"testing"
)

// TestFeatureExtendAllocatesNoFactor pins what a tell costs the feature
// backend in memory: a one-point Extend of an m = 256 model updates the
// factor it owns in place, so it allocates O(m) scratch — the feature and
// update vectors, the rotation cosines, the new model's header — and never
// the 512 KB m×m factor a copy would take. Left out of -race builds, whose
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
	if got := r.AllocedBytesPerOp(); got >= 32<<10 {
		t.Fatalf("one-point Extend at m = %d allocates %d B, want < 32 KB (the factor is %d KB)", m, got, m*m*8>>10)
	}
}
