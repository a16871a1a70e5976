package easybo_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"easybo"
	"easybo/circuits"
)

func brainFast(opts *easybo.Options) {
	opts.InitPoints = 10
	opts.FitIters = 12
	opts.RefitEvery = 10
}

func TestOptimizeBranin(t *testing.T) {
	p := circuits.Branin()
	opts := easybo.Options{Workers: 4, MaxEvals: 40, Seed: 1}
	brainFast(&opts)
	res, err := easybo.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 40 {
		t.Fatalf("evaluations = %d", len(res.Evaluations))
	}
	if res.BestY < -3 {
		t.Fatalf("Branin best %v too far from 0", res.BestY)
	}
	if res.Seconds <= 0 {
		t.Fatal("no virtual time accounted")
	}
	for i := range res.BestX {
		if res.BestX[i] < p.Lo[i] || res.BestX[i] > p.Hi[i] {
			t.Fatalf("best out of box: %v", res.BestX)
		}
	}
}

func TestOptimizeAllAlgorithms(t *testing.T) {
	p := circuits.Branin()
	for _, algo := range []easybo.Algorithm{
		easybo.EasyBO, easybo.EasyBOA, easybo.EasyBOSync, easybo.EasyBOS,
		easybo.PBO, easybo.PHCBO, easybo.EI, easybo.LCB, easybo.RandomSearch,
	} {
		opts := easybo.Options{Algorithm: algo, Workers: 3, MaxEvals: 25, Seed: 2}
		brainFast(&opts)
		res, err := easybo.Optimize(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Evaluations) != 25 {
			t.Fatalf("%s: evaluations = %d", algo, len(res.Evaluations))
		}
	}
	// DE ignores Workers and runs its own budget.
	res, err := easybo.Optimize(p, easybo.Options{Algorithm: easybo.DE, MaxEvals: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 300 {
		t.Fatalf("DE evaluations = %d", len(res.Evaluations))
	}
}

func TestOptimizeUnknownAlgorithm(t *testing.T) {
	if _, err := easybo.Optimize(circuits.Branin(), easybo.Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestOptimizeValidation(t *testing.T) {
	bad := easybo.Problem{Name: "bad", Lo: []float64{1}, Hi: []float64{0},
		Objective: func([]float64) float64 { return 0 }}
	if _, err := easybo.Optimize(bad, easybo.Options{}); err == nil {
		t.Fatal("inverted bounds must fail")
	}
	noObj := easybo.Problem{Name: "noobj", Lo: []float64{0}, Hi: []float64{1}}
	if _, err := easybo.Optimize(noObj, easybo.Options{}); err == nil {
		t.Fatal("missing objective must fail")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := circuits.Hartmann6()
	opts := easybo.Options{Workers: 5, MaxEvals: 30, Seed: 11}
	brainFast(&opts)
	r1, err := easybo.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := easybo.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestY != r2.BestY || r1.Seconds != r2.Seconds {
		t.Fatal("Optimize not deterministic for fixed seed")
	}
}

func TestLoopAskTell(t *testing.T) {
	p := circuits.Branin()
	opts := easybo.Options{Seed: 3, InitPoints: 8, FitIters: 12}
	loop, err := easybo.NewLoop(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Drive with 3 in-flight evaluations, 30 total.
	type job struct{ x []float64 }
	var inflight []job
	completed := 0
	for completed < 30 {
		for len(inflight) < 3 {
			x, err := loop.Suggest()
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if x[i] < p.Lo[i] || x[i] > p.Hi[i] {
					t.Fatalf("suggestion out of box: %v", x)
				}
			}
			inflight = append(inflight, job{x})
		}
		if loop.Pending() != 3 {
			t.Fatalf("pending = %d, want 3", loop.Pending())
		}
		// Complete the oldest.
		j := inflight[0]
		inflight = inflight[1:]
		if err := loop.Observe(j.x, p.Objective(j.x)); err != nil {
			t.Fatal(err)
		}
		completed++
	}
	if loop.Observations() != 30 {
		t.Fatalf("observations = %d", loop.Observations())
	}
	bx, by := loop.Best()
	if bx == nil || math.IsInf(by, -1) {
		t.Fatal("no best tracked")
	}
	if by < -20 {
		t.Fatalf("ask-tell best %v unreasonably poor", by)
	}
}

func TestLoopObserveUnsuggestedAndErrors(t *testing.T) {
	p := circuits.Branin()
	loop, err := easybo.NewLoop(p, easybo.Options{Seed: 4, InitPoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Observing external data is allowed.
	if err := loop.Observe([]float64{0, 5}, p.Objective([]float64{0, 5})); err != nil {
		t.Fatal(err)
	}
	if err := loop.Observe([]float64{1}, 0); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := loop.Observe([]float64{0, 1}, bad); err == nil {
			t.Fatalf("observation %v must fail", bad)
		}
	}
	// Loop rejects non-EasyBO algorithms.
	if _, err := easybo.NewLoop(p, easybo.Options{Algorithm: easybo.PBO}); err == nil {
		t.Fatal("Loop must reject sync algorithms")
	}
}

func TestOptimizeParallelRealGoroutines(t *testing.T) {
	p := circuits.Branin()
	opts := easybo.Options{Workers: 4, MaxEvals: 25, Seed: 5, InitPoints: 10, FitIters: 10}
	res, err := easybo.OptimizeParallel(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 25 {
		t.Fatalf("evaluations = %d", len(res.Evaluations))
	}
	if res.BestX == nil {
		t.Fatal("no best")
	}
}

func TestCircuitProblemsExposed(t *testing.T) {
	op := circuits.OpAmp()
	if len(op.Lo) != 10 || len(circuits.OpAmpVariables()) != 10 {
		t.Fatal("op-amp must have 10 variables")
	}
	ce := circuits.ClassE()
	if len(ce.Lo) != 12 || len(circuits.ClassEVariables()) != 12 {
		t.Fatal("class-E must have 12 variables")
	}
	// Mid-box evaluations are finite and costed.
	mid := func(p easybo.Problem) []float64 {
		x := make([]float64, len(p.Lo))
		for i := range x {
			x[i] = 0.5 * (p.Lo[i] + p.Hi[i])
		}
		return x
	}
	if y := op.Objective(mid(op)); math.IsNaN(y) {
		t.Fatal("op-amp objective NaN at midpoint")
	}
	if c := op.Cost(mid(op)); c <= 0 {
		t.Fatal("op-amp cost must be positive")
	}
	gain, ugf, pm, _ := circuits.OpAmpPerformance(mid(op))
	if math.IsNaN(gain) || math.IsNaN(ugf) || math.IsNaN(pm) {
		t.Fatal("op-amp performance NaN")
	}
	if y := ce.Objective(mid(ce)); math.IsNaN(y) {
		t.Fatal("class-E objective NaN at midpoint")
	}
	pout, pae, _ := circuits.ClassEPerformance(mid(ce))
	if math.IsNaN(pout) || math.IsNaN(pae) {
		t.Fatal("class-E performance NaN")
	}
	// Synthetic wrappers.
	if v := circuits.Ackley(3).Objective([]float64{0, 0, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("Ackley max at origin must be ≈0, got %v", v)
	}
	if circuits.Rosenbrock(2).Objective([]float64{1, 1}) != 0 {
		t.Fatal("Rosenbrock max at (1,1) must be 0")
	}
	if circuits.Hartmann6().Objective(make([]float64, 6)) < 0 {
		t.Fatal("Hartmann6 must be positive somewhere near origin corner")
	}
}

func TestOptimizeNewAlgorithms(t *testing.T) {
	p := circuits.Branin()
	for _, algo := range []easybo.Algorithm{easybo.TS, easybo.GPHedge} {
		opts := easybo.Options{Algorithm: algo, Workers: 2, MaxEvals: 25, Seed: 6}
		brainFast(&opts)
		res, err := easybo.Optimize(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Evaluations) != 25 {
			t.Fatalf("%s: evaluations = %d", algo, len(res.Evaluations))
		}
	}
}

func TestLoopSuggestBeforeObservations(t *testing.T) {
	// Suggesting more points than the initial design before observing
	// anything exercises the random-fallback branch (fewer than 2
	// observations, no surrogate yet).
	p := circuits.Branin()
	loop, err := easybo.NewLoop(p, easybo.Options{Seed: 21, InitPoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // 2 design points + 3 random fallbacks
		x, err := loop.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		for j := range x {
			if x[j] < p.Lo[j] || x[j] > p.Hi[j] {
				t.Fatalf("fallback suggestion out of box: %v", x)
			}
		}
	}
	if loop.Pending() != 5 {
		t.Fatalf("pending = %d", loop.Pending())
	}
	// Best before any observation.
	if bx, by := loop.Best(); bx != nil || !math.IsInf(by, -1) {
		t.Fatal("Best must be empty before observations")
	}
}

func TestLoopHyperRefitCadence(t *testing.T) {
	// Run enough observe/suggest rounds to cross the RefitEvery boundary
	// twice, exercising both the warm-start hyperfit and fixed-theta paths.
	p := circuits.Branin()
	loop, err := easybo.NewLoop(p, easybo.Options{
		Seed: 22, InitPoints: 4, RefitEvery: 3, FitIters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		x, err := loop.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		if err := loop.Observe(x, p.Objective(x)); err != nil {
			t.Fatal(err)
		}
	}
	if loop.Observations() != 14 || loop.Pending() != 0 {
		t.Fatalf("obs=%d pending=%d", loop.Observations(), loop.Pending())
	}
}

func TestOptimizeParallelFaultTolerance(t *testing.T) {
	// A flaky objective: panics and NaNs on a deterministic slice of calls.
	// SkipFailures must absorb both without crashing the run or leaking a
	// worker, and the failures must be reported.
	p := circuits.Branin()
	base := p.Objective
	var calls atomic.Int64
	p.Objective = func(x []float64) float64 {
		switch calls.Add(1) % 5 {
		case 0:
			panic("simulator crash")
		case 3:
			return math.NaN()
		}
		return base(x)
	}
	opts := easybo.Options{
		Workers: 4, MaxEvals: 30, Seed: 8, InitPoints: 10, FitIters: 10,
		Async: easybo.AsyncOptions{Policy: easybo.SkipFailures},
	}
	res, err := easybo.OptimizeParallel(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations)+len(res.Failed) != 30 {
		t.Fatalf("ok %d + failed %d != 30", len(res.Evaluations), len(res.Failed))
	}
	if len(res.Failed) == 0 {
		t.Fatal("expected injected failures to be reported")
	}
	for _, e := range res.Evaluations {
		if e.Err != nil || math.IsNaN(e.Y) {
			t.Fatalf("failure leaked into successes: %+v", e)
		}
	}
	util := res.WorkerUtilization()
	if len(util) != 4 {
		t.Fatalf("utilization len = %d", len(util))
	}
}

func TestOptimizeParallelAbortsOnFailureByDefault(t *testing.T) {
	p := circuits.Branin()
	p.Objective = func(x []float64) float64 { panic("always down") }
	_, err := easybo.OptimizeParallel(p, easybo.Options{
		Workers: 2, MaxEvals: 10, Seed: 9, InitPoints: 4, FitIters: 10,
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("default policy must abort, got %v", err)
	}
}

func TestOptimizeParallelRetriesTransientFailures(t *testing.T) {
	// Every objective call fails on its first attempt per point; with
	// executor-level retries every evaluation eventually succeeds.
	p := circuits.Branin()
	base := p.Objective
	var mu sync.Mutex
	seen := map[[2]float64]bool{}
	p.Objective = func(x []float64) float64 {
		k := [2]float64{x[0], x[1]}
		mu.Lock()
		first := !seen[k]
		seen[k] = true
		mu.Unlock()
		if first {
			panic("transient fault")
		}
		return base(x)
	}
	res, err := easybo.OptimizeParallel(p, easybo.Options{
		Workers: 3, MaxEvals: 20, Seed: 10, InitPoints: 8, FitIters: 10,
		Async: easybo.AsyncOptions{Policy: easybo.RetryFailures, Retries: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluations) != 20 {
		t.Fatalf("evaluations = %d, want 20", len(res.Evaluations))
	}
	for _, e := range res.Evaluations {
		if e.Attempts < 2 {
			t.Fatalf("first attempt always fails, yet attempts = %d", e.Attempts)
		}
	}
}

func TestOptimizeVirtualSkipsNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		testOptimizeVirtualSkips(t, bad)
	}
}

// testOptimizeVirtualSkips is the virtual engine's failure path through the
// public API: a slice of the box returns the non-finite value bad;
// SkipFailures completes the budget and reports the failures,
// deterministically.
func testOptimizeVirtualSkips(t *testing.T, bad float64) {
	p := circuits.Branin()
	base := p.Objective
	p.Objective = func(x []float64) float64 {
		if x[0] > 9 {
			return bad
		}
		return base(x)
	}
	opts := easybo.Options{
		Workers: 4, MaxEvals: 40, Seed: 1, // seed 1 visits x[0] > 9 in its design
		Async: easybo.AsyncOptions{Policy: easybo.SkipFailures},
	}
	brainFast(&opts)
	r1, err := easybo.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := easybo.Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Evaluations)+len(r1.Failed) != 40 {
		t.Fatalf("ok %d + failed %d != 40", len(r1.Evaluations), len(r1.Failed))
	}
	if len(r1.Failed) == 0 {
		t.Fatal("expected failures on this seed")
	}
	if math.IsInf(r1.BestY, 0) {
		t.Fatalf("a failed evaluation became the incumbent: %v", r1.BestY)
	}
	if r1.BestY != r2.BestY || len(r1.Failed) != len(r2.Failed) || r1.Seconds != r2.Seconds {
		t.Fatal("virtual failure handling must stay deterministic")
	}
	for _, e := range r1.Failed {
		if e.Err == nil || !math.IsNaN(e.Y) {
			t.Fatalf("failed evaluation malformed: %+v", e)
		}
	}
}

func TestLoopForget(t *testing.T) {
	p := circuits.Branin()
	loop, err := easybo.NewLoop(p, easybo.Options{Seed: 12, InitPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	x1, err := loop.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	x2, err := loop.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if loop.Pending() != 2 {
		t.Fatalf("pending = %d", loop.Pending())
	}
	if !loop.Forget(x1) {
		t.Fatal("Forget must find the pending point")
	}
	if loop.Forget(x1) {
		t.Fatal("second Forget of the same point must report false")
	}
	if loop.Pending() != 1 {
		t.Fatalf("pending after Forget = %d", loop.Pending())
	}
	if err := loop.Observe(x2, p.Objective(x2)); err != nil {
		t.Fatal(err)
	}
	if loop.Pending() != 0 || loop.Observations() != 1 {
		t.Fatalf("pending %d obs %d", loop.Pending(), loop.Observations())
	}
}

func TestOptimizeHonorsCancelledContext(t *testing.T) {
	// Options.Async.Context is threaded into every virtual driver — async,
	// sync, random, DE and the constrained one: a cancelled context stops
	// the run with an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []easybo.Algorithm{
		easybo.EasyBO, easybo.PBO, easybo.RandomSearch, easybo.DE,
	} {
		opts := easybo.Options{Algorithm: algo, Workers: 4, MaxEvals: 40, Seed: 1,
			Async: easybo.AsyncOptions{Context: ctx}}
		brainFast(&opts)
		if _, err := easybo.Optimize(circuits.Branin(), opts); err == nil ||
			!strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("%s: cancelled context must abort the virtual run, got %v", algo, err)
		}
	}
	p, cons := linearUnderDisk()
	if _, err := easybo.OptimizeConstrained(p, cons, easybo.Options{Workers: 2, MaxEvals: 10, InitPoints: 4,
		Async: easybo.AsyncOptions{Context: ctx}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimizeConstrained: err = %v, want one wrapping context.Canceled", err)
	}
}
