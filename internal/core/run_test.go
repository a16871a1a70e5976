package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// faultyVirtual builds a virtual executor whose objective fails (NaN) on a
// caller-controlled predicate, with position-dependent costs so completions
// interleave out of order.
func faultyVirtual(b int, fail func(x []float64) bool) *sched.VirtualExecutor {
	return sched.NewVirtual(b, func(x []float64) (float64, float64) {
		cost := 1 + 3*x[0]
		if fail(x) {
			return math.NaN(), cost
		}
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2), cost
	})
}

func asyncFixture(rng *rand.Rand) ([][]float64, []float64, []float64, Fitter) {
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	var init [][]float64
	for i := 0; i < 8; i++ {
		init = append(init, []float64{rng.Float64(), rng.Float64()})
	}
	fit := func(xs [][]float64, ys []float64) (surrogate.Surrogate, error) {
		for _, y := range ys {
			if math.IsNaN(y) {
				panic("core: NaN observation reached the surrogate")
			}
		}
		m, err := trainExact(xs, ys, lo, hi, rand.New(rand.NewSource(9)), 10)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	return init, lo, hi, fit
}

// runAsync builds the machine cfg describes and drives it without a barrier.
func runAsync(ctx context.Context, ex sched.Executor, cfg AskTellConfig) error {
	at, err := NewAskTell(cfg)
	if err != nil {
		return err
	}
	return at.Run(ctx, ex, false)
}

func TestAsyncLoopAbortsOnFailureByDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// Fail the third initial-design point.
	ex := faultyVirtual(3, func(x []float64) bool { return x[0] == init[2][0] })
	err := runAsync(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("default policy must abort on failure, got %v", err)
	}
}

func TestAsyncLoopSkipsFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	failSet := map[float64]bool{init[1][0]: true, init[4][0]: true}
	ex := faultyVirtual(3, func(x []float64) bool { return failSet[x[0]] })
	var ok, failed []sched.Result
	err := runAsync(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6, Penalize: true}, Rng: rng,
		Failure:   FailSkip,
		OnResult:  func(r sched.Result) { ok = append(ok, r) },
		OnFailure: func(r sched.Result) { failed = append(failed, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("failures = %d, want 2", len(failed))
	}
	// Skipped failures consume budget: successes + failures == MaxEvals.
	if len(ok)+len(failed) != 20 {
		t.Fatalf("ok %d + failed %d != 20", len(ok), len(failed))
	}
	for _, r := range ok {
		if r.Err != nil || math.IsNaN(r.Y) {
			t.Fatalf("failed result delivered as success: %+v", r)
		}
	}
	for _, r := range failed {
		if r.Err == nil {
			t.Fatalf("OnFailure saw a healthy result: %+v", r)
		}
	}
}

func TestAsyncLoopResubmitsFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// Transient fault: each distinct point fails its first attempt only.
	attempts := map[float64]int{}
	ex := faultyVirtual(3, func(x []float64) bool {
		attempts[x[0]]++
		return attempts[x[0]] == 1 && (x[0] == init[0][0] || x[0] == init[5][0])
	})
	var ok, failed []sched.Result
	err := runAsync(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6, Penalize: true}, Rng: rng,
		Failure:   FailResubmit,
		OnResult:  func(r sched.Result) { ok = append(ok, r) },
		OnFailure: func(r sched.Result) { failed = append(failed, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resubmissions do not consume budget: exactly MaxEvals successes.
	if len(ok) != 20 {
		t.Fatalf("successes = %d, want 20", len(ok))
	}
	if len(failed) != 2 {
		t.Fatalf("failures = %d, want 2", len(failed))
	}
	// Both failed points were eventually observed.
	for _, f := range failed {
		found := false
		for _, r := range ok {
			if r.X[0] == f.X[0] && r.X[1] == f.X[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("resubmitted point %v never completed", f.X)
		}
	}
}

func TestAsyncLoopMaxFailuresBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	// One poisoned point fails every attempt: resubmission can never succeed.
	ex := faultyVirtual(3, func(x []float64) bool { return x[0] == init[3][0] })
	err := runAsync(context.Background(), ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
		Failure: FailResubmit, MaxFailures: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "exceed the limit") {
		t.Fatalf("permanently failing point must trip MaxFailures, got %v", err)
	}
}

func TestAsyncLoopCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init, lo, hi, fit := asyncFixture(rng)
	ex := faultyVirtual(3, func(x []float64) bool { return false })
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := runAsync(ctx, ex, AskTellConfig{
		MaxEvals: 20, Init: init, Lo: lo, Hi: hi,
		Fit: fit, Proposer: &Proposer{Lambda: 6}, Rng: rng,
		OnResult: func(r sched.Result) {
			n++
			if n == 5 {
				cancel()
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancelled loop must error, got %v", err)
	}
	if n != 5 {
		t.Fatalf("loop kept absorbing results after cancel: %d", n)
	}
}
