//go:build !race

package surrogate

import (
	"math/rand"
	"runtime"
	"testing"

	"easybo/internal/gp"
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
