//go:build !race

package gp

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestRefitAllocatesItsWorkspaceOnly pins what one warm refit at n = 150,
// d = 10 costs in memory to the arithmetic of its workspace: the Gram matrix
// K (n² floats), K⁻¹'s upper triangle packed (n(n+1)/2), two packed factor
// slots (n(n+1)/2 each) and the distance cache (n(n−1)/2·d), plus 64 KB for
// the page rounding of those buffers and everything O(n). L⁻¹ has no buffer
// of its own: it is built in K's spent lower triangle. A dense K⁻¹ (88 KB
// more) or an L⁻¹ scratch beside K (176 KB) fails it. Left out of -race
// builds, whose runtime allocates on its own account.
func TestRefitAllocatesItsWorkspaceOnly(t *testing.T) {
	const n, d = 150, 10
	x, y := trainData(rand.New(rand.NewSource(37)), n, d, func(v []float64) float64 { return v[0] + math.Sin(6*v[3]) })
	opts := warmOptions(SEARD{}, d, 20)
	var b [5]float64
	for i := range b {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := FitHyper(SEARD{}, x, y, rand.New(rand.NewSource(1)), opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		b[i] = float64(after.TotalAlloc - before.TotalAlloc)
	}
	sort.Float64s(b[:])
	got := b[len(b)/2]
	packed := n * (n + 1) / 2
	workspace := 8 * (n*n + 3*packed + n*(n-1)/2*d)
	t.Logf("warm refit at n = %d, d = %d: %.0f B; workspace arithmetic %d B", n, d, got, workspace)
	if limit := float64(workspace + 64<<10); got > limit {
		t.Fatalf("warm refit allocates %.0f B, want <= %.0f (workspace %d B + 64 KB)", got, limit, workspace)
	}
}
