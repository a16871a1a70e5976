//go:build !race

package gp

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
)

// TestRefitAllocatesItsWorkspaceOnly pins what one warm refit at n = 150,
// d = 10 costs in memory, once an earlier training has left its distance
// cache in the pool, to the arithmetic of its workspace: the Gram matrix K
// (n² floats), K⁻¹'s upper triangle packed (n(n+1)/2) and two packed factor
// slots (n(n+1)/2 each), plus 64 KB for the page rounding of those buffers
// and everything O(n). L⁻¹ has no buffer of its own: it is built in K's
// spent lower triangle; and the distance cache (n(n−1)/2·d floats, 873 KB)
// is the warm-up's. A cache allocated per training, a dense K⁻¹ (88 KB more)
// or an L⁻¹ scratch beside K (176 KB) fails it. The collector is off around
// the measured calls, so it cannot empty the pool in between. Left out of
// -race builds, whose runtime allocates on its own account and whose pool
// drops a share of what is put in it.
func TestRefitAllocatesItsWorkspaceOnly(t *testing.T) {
	const n, d = 150, 10
	x, y := trainData(rand.New(rand.NewSource(37)), n, d, func(v []float64) float64 { return v[0] + math.Sin(6*v[3]) })
	opts := warmOptions(SEARD{}, d, 20)
	refit := func() {
		if _, err := FitHyper(SEARD{}, x, y, rand.New(rand.NewSource(1)), opts); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var b [5]float64
	for i := range b {
		refit() // the warm-up: leaves a cache of this size in the pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refit()
		runtime.ReadMemStats(&after)
		b[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	sort.Float64s(b[:])
	got := b[len(b)/2]
	workspace := 8 * (n*n + 3*n*(n+1)/2)
	t.Logf("warm refit at n = %d, d = %d after a warm-up: %.0f B; workspace arithmetic %d B", n, d, got, workspace)
	if limit := float64(workspace + 64<<10); got > limit {
		t.Fatalf("warm refit allocates %.0f B, want <= %.0f (workspace %d B + 64 KB)", got, limit, workspace)
	}
}
