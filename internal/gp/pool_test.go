package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// nanCache is what a training on another set leaves in the pool: a
// distance cache of n points in d dimensions whose every entry is NaN.
func nanCache(n, d int) *gramCache {
	c := &gramCache{n: n, d: d, sq: make([]float64, n*(n-1)/2*d)}
	for i := range c.sq {
		c.sq[i] = math.NaN()
	}
	return c
}

// TestPooledCacheChangesNoBit puts a NaN-filled cache, left over from a
// larger training set in another dimension, into the pool before every
// training, and holds what follows to the serial reference of
// TestFitHyperMatchesReference: the fill, a warm-only refit, a multi-start
// fit and LMLGradient, bit for bit. A fill that skips an entry leaves a NaN
// behind it, and so does one that writes only nonzero differences: every
// third point shares its second coordinate, so some differences are exact
// zeros, which storage fresh from the allocator would supply unwritten. The
// pool may drop what is put in it (the race runtime drops a share on
// purpose), so the fill is retried until the leftover buffer is handed out,
// and must be within twenty tries.
func TestPooledCacheChangesNoBit(t *testing.T) {
	const n, d = 60, 4
	x, y := trainData(rand.New(rand.NewSource(41)), n, d, func(v []float64) float64 {
		return math.Sin(5*v[0]) + v[1]*v[2] - v[3]
	})
	for i := 0; i < n; i += 3 {
		x[i][1] = 0.5
	}

	reused := false
	for try := 0; try < 20 && !reused; try++ {
		left := nanCache(n+30, d+3)
		gramPool.Put(left)
		c := newGramCache(x)
		reused = &c.sq[0] == &left.sq[0]
		off := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !bitsEqual(c.sq[off:off+d], refDiff2(x[i], x[j])) {
					t.Fatalf("try %d: pair (%d, %d) differs from its squared differences", try, i, j)
				}
				off += d
			}
		}
		if c.n != n || c.d != d || off != len(c.sq) {
			t.Fatalf("try %d: cache of %d×%d with %d entries, want %d×%d with %d", try, c.n, c.d, len(c.sq), n, d, off)
		}
		gramPool.Put(c)
	}
	if !reused {
		t.Fatal("the pool never handed out the leftover buffer in twenty tries")
	}

	for _, kern := range []Kernel{SEARD{}, Matern52{}} {
		for _, c := range []struct {
			name string
			opts *FitOptions
		}{
			{"warm-only", warmOptions(kern, d, 15)},
			{"multi-start", &FitOptions{Iters: 15, Restarts: 2}},
		} {
			what := fmt.Sprintf("%s %s", kern.Name(), c.name)
			want, _, err := refFitHyper(kern, x, y, rand.New(rand.NewSource(7)), c.opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			gramPool.Put(nanCache(n+30, d+3))
			got, err := FitHyper(kern, x, y, rand.New(rand.NewSource(7)), c.opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameFit(t, what, got, want)
			gramPool.Put(nanCache(n+30, d+3))
			if !bitsEqual(got.LMLGradient(), refLMLGradient(want)) {
				t.Fatalf("%s: LMLGradient differs from the reference", what)
			}
		}
	}
}

// TestConcurrentFitsShareThePool runs multi-start fits on four different
// training sets at once, over and over, at GOMAXPROCS 4 at least, so that
// the starts of each run side by side and the fits trade distance caches
// through the pool. Every result must be its own set's serial reference, bit
// for bit: a cache handed back while a start of its training still reads it
// is refilled by another training with other distances. make race runs it
// ten more times under -race.
func TestConcurrentFitsShareThePool(t *testing.T) {
	const d, fits, rounds = 3, 4, 6
	type set struct {
		x    [][]float64
		y    []float64
		opts *FitOptions
		want *GP
	}
	sets := make([]set, fits)
	for i := range sets {
		s := &sets[i]
		f := func(v []float64) float64 { return math.Sin(float64(3+i)*v[0]) + v[1]*v[2] }
		s.x, s.y = trainData(rand.New(rand.NewSource(int64(50+i))), 30+5*i, d, f)
		s.opts = &FitOptions{Iters: 12, Restarts: 1 + i%2}
		want, _, err := refFitHyper(SEARD{}, s.x, s.y, rand.New(rand.NewSource(int64(60+i))), s.opts)
		if err != nil {
			t.Fatal(err)
		}
		s.want = want
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	got := make([][rounds]*GP, fits)
	errs := make([]error, fits)
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &sets[i]
			for r := 0; r < rounds; r++ {
				g, err := FitHyper(SEARD{}, s.x, s.y, rand.New(rand.NewSource(int64(60+i))), s.opts)
				if err != nil {
					errs[i] = err
					return
				}
				got[i][r] = g
			}
		}(i)
	}
	wg.Wait()
	for i, s := range sets {
		if errs[i] != nil {
			t.Fatalf("set %d: %v", i, errs[i])
		}
		for r, g := range got[i] {
			sameFit(t, fmt.Sprintf("set %d (n = %d), round %d", i, len(s.x), r), g, s.want)
		}
	}
}
