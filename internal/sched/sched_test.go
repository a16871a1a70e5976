package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestVirtualBasicLifecycle(t *testing.T) {
	// Cost equals the point's value; y is its double.
	ex := NewVirtual(2, func(x []float64) (float64, float64) { return 2 * x[0], x[0] })
	if ex.Workers() != 2 || ex.Idle() != 2 || ex.Now() != 0 {
		t.Fatal("fresh executor state wrong")
	}
	if err := ex.Launch([]float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch([]float64{3}); err != nil {
		t.Fatal(err)
	}
	if ex.Idle() != 0 {
		t.Fatal("both workers should be busy")
	}
	if err := ex.Launch([]float64{1}); err == nil {
		t.Fatal("launch with no idle worker must fail")
	}
	// First completion is the cheaper job (cost 3).
	r, ok := ex.Wait()
	if !ok || r.Y != 6 || r.End != 3 || ex.Now() != 3 {
		t.Fatalf("first completion %+v, now=%v", r, ex.Now())
	}
	// Launch another mid-flight; starts at the current clock.
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	r2, _ := ex.Wait()
	if r2.Y != 2 || r2.Start != 3 || r2.End != 4 {
		t.Fatalf("second completion %+v", r2)
	}
	r3, _ := ex.Wait()
	if r3.Y != 10 || r3.End != 5 {
		t.Fatalf("third completion %+v", r3)
	}
	if _, ok := ex.Wait(); ok {
		t.Fatal("Wait on empty executor must report not-ok")
	}
}

// simulateMakespans computes sync and async makespans for the same workload.
func simulateMakespans(costs []float64, b int) (syncT, asyncT float64) {
	// Synchronous: batches of b, each takes the max of its batch.
	for i := 0; i < len(costs); i += b {
		end := i + b
		if end > len(costs) {
			end = len(costs)
		}
		batchMax := 0.0
		for _, c := range costs[i:end] {
			if c > batchMax {
				batchMax = c
			}
		}
		syncT += batchMax
	}
	// Asynchronous: greedy list scheduling through the virtual executor.
	idx := 0
	ex := NewVirtual(b, func(x []float64) (float64, float64) { return 0, x[0] })
	for idx < len(costs) && ex.Idle() > 0 {
		_ = ex.Launch([]float64{costs[idx]})
		idx++
	}
	for {
		_, ok := ex.Wait()
		if !ok {
			break
		}
		if idx < len(costs) {
			_ = ex.Launch([]float64{costs[idx]})
			idx++
		}
	}
	return syncT, ex.Now()
}

func TestAsyncNeverSlowerThanSyncProperty(t *testing.T) {
	// Paper Fig. 1/§III-A: async makespan <= sync makespan, and both are
	// bounded below by total-work/B and by the longest single job.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		b := 1 + rng.Intn(8)
		costs := make([]float64, n)
		var total, longest float64
		for i := range costs {
			costs[i] = 0.1 + rng.Float64()*10
			total += costs[i]
			if costs[i] > longest {
				longest = costs[i]
			}
		}
		syncT, asyncT := simulateMakespans(costs, b)
		lower := math.Max(total/float64(b), longest)
		return asyncT <= syncT+1e-9 && asyncT >= lower-1e-9 && syncT >= lower-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncSavingsGrowWithDispersion(t *testing.T) {
	// Heterogeneous runtimes: async saving should be materially positive;
	// homogeneous runtimes: async ≈ sync. This is the paper's core
	// motivation for asynchrony.
	rng := rand.New(rand.NewSource(42))
	n, b := 150, 10
	hetero := make([]float64, n)
	homo := make([]float64, n)
	for i := range hetero {
		hetero[i] = math.Exp(rng.NormFloat64()*0.5) * 10 // lognormal, CV≈0.53
		homo[i] = 10
	}
	sh, ah := simulateMakespans(hetero, b)
	savingHetero := 1 - ah/sh
	ss, as := simulateMakespans(homo, b)
	savingHomo := 1 - as/ss
	if savingHetero < 0.10 {
		t.Fatalf("heterogeneous async saving too small: %v", savingHetero)
	}
	if math.Abs(savingHomo) > 1e-9 {
		t.Fatalf("homogeneous async saving should be 0, got %v", savingHomo)
	}
}

func TestVirtualDeterminism(t *testing.T) {
	runOnce := func() []float64 {
		ex := NewVirtual(4, func(x []float64) (float64, float64) { return x[0], 1 + x[0]/3 })
		rng := rand.New(rand.NewSource(7))
		var ends []float64
		for i := 0; i < 4; i++ {
			_ = ex.Launch([]float64{rng.Float64() * 5})
		}
		for i := 0; i < 30; i++ {
			r, ok := ex.Wait()
			if !ok {
				break
			}
			ends = append(ends, r.End)
			_ = ex.Launch([]float64{rng.Float64() * 5})
		}
		return ends
	}
	a := runOnce()
	b := runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("virtual executor not deterministic")
		}
	}
	// Completion times must be sorted (virtual clock is monotone).
	if !sort.Float64sAreSorted(a) {
		t.Fatal("completions out of order")
	}
}

func TestVirtualNegativeCost(t *testing.T) {
	ex := NewVirtual(1, func(x []float64) (float64, float64) { return 0, -1 })
	if err := ex.Launch([]float64{1}); err == nil {
		t.Fatal("negative cost must fail")
	}
}

func TestVirtualPanicsOnBadConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewVirtual(0, func([]float64) (float64, float64) { return 0, 0 }) },
		func() { NewVirtual(1, nil) },
		func() { NewGo(0, func([]float64) float64 { return 0 }) },
		func() { NewGo(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGoExecutorParallelism(t *testing.T) {
	// 4 workers, 8 jobs; verify all results arrive with correct values and
	// the busy set shrinks to zero.
	ex := NewGo(4, func(x []float64) float64 { return x[0] * x[0] })
	launched := 0
	for launched < 4 {
		if err := ex.Launch([]float64{float64(launched)}); err != nil {
			t.Fatal(err)
		}
		launched++
	}
	got := map[float64]bool{}
	for completed := 0; completed < 8; {
		r, ok := ex.Wait()
		if !ok {
			t.Fatal("missing results")
		}
		completed++
		got[r.Y] = true
		if launched < 8 {
			if err := ex.Launch([]float64{float64(launched)}); err != nil {
				t.Fatal(err)
			}
			launched++
		}
	}
	for i := 0; i < 8; i++ {
		if !got[float64(i*i)] {
			t.Fatalf("missing result %d", i*i)
		}
	}
	if ex.Idle() != 4 {
		t.Fatal("executor should be drained")
	}
	if _, ok := ex.Wait(); ok {
		t.Fatal("drained executor must report not-ok")
	}
}
