package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSlotPool(t *testing.T) {
	p := newSlotPool(3)
	if p.size() != 3 || p.inUse() != 0 || p.idle() != 3 {
		t.Fatal("fresh pool state wrong")
	}
	for want := 0; want < 3; want++ {
		s, ok := p.acquire()
		if !ok || s != want {
			t.Fatalf("acquire = (%d, %v), want lowest free %d", s, ok, want)
		}
	}
	if _, ok := p.acquire(); ok {
		t.Fatal("acquire on a full pool must fail")
	}
	p.release(1)
	if s, ok := p.acquire(); !ok || s != 1 {
		t.Fatalf("freed slot 1 must be reused, got %d", s)
	}
	for _, bad := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("release(%d) must panic", bad)
				}
			}()
			p.release(bad)
		}()
	}
	p.release(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double release must panic")
			}
		}()
		p.release(2)
	}()
}

// TestGoExecutorWorkerAttribution pins the misattribution bug: with
// out-of-order completions, in-flight evaluations must report the slot they
// actually occupy, never a shared index.
func TestGoExecutorWorkerAttribution(t *testing.T) {
	release := make([]chan struct{}, 4)
	for i := range release {
		release[i] = make(chan struct{})
	}
	ex := NewGo(3, func(x []float64) float64 {
		<-release[int(x[0])]
		return x[0]
	})
	for i := 0; i < 3; i++ {
		if err := ex.Launch([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Finish the LAST launch first: under the old `worker = inUse-1`
	// accounting this is where attribution went wrong.
	close(release[2])
	r, ok := ex.Wait()
	if !ok || r.Y != 2 || r.Worker != 2 {
		t.Fatalf("out-of-order completion misattributed: %+v", r)
	}
	// Relaunch onto the freed slot: it must get slot 2 (the only free one),
	// not collide with the still-running evaluations on slots 0 and 1.
	close(release[3]) // the relaunch finishes immediately
	if err := ex.Launch([]float64{3}); err != nil {
		t.Fatal(err)
	}
	close(release[0])
	close(release[1])
	workers := map[int]bool{}
	for i := 0; i < 3; i++ {
		r, ok := ex.Wait()
		if !ok {
			t.Fatal("missing result")
		}
		if r.Y == 3 {
			if r.Worker != 2 {
				t.Fatalf("relaunch got slot %d, want the freed slot 2", r.Worker)
			}
			continue
		}
		if workers[r.Worker] {
			t.Fatalf("worker %d attributed twice", r.Worker)
		}
		workers[r.Worker] = true
	}
	if !workers[0] || !workers[1] {
		t.Fatalf("slots 0 and 1 must appear, got %v", workers)
	}
}

func TestGoExecutorPanicDoesNotLeakWorker(t *testing.T) {
	ex := NewGo(2, func(x []float64) float64 {
		if x[0] < 0 {
			panic("simulator crash")
		}
		return x[0]
	})
	if err := ex.Launch([]float64{-1}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch([]float64{-2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, ok := ex.Wait()
		if !ok {
			t.Fatal("Wait deadlocked semantics: missing result after panic")
		}
		var pe *PanicError
		if !errors.As(r.Err, &pe) {
			t.Fatalf("want PanicError, got %v", r.Err)
		}
		if !math.IsNaN(r.Y) {
			t.Fatalf("failed eval must carry NaN, got %v", r.Y)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("panic stack not captured")
		}
	}
	if ex.Idle() != 2 {
		t.Fatalf("panicked evals leaked workers: idle = %d", ex.Idle())
	}
	// The pool keeps working after the crashes.
	if err := ex.Launch([]float64{5}); err != nil {
		t.Fatal(err)
	}
	if r, ok := ex.Wait(); !ok || r.Err != nil || r.Y != 5 {
		t.Fatalf("post-crash launch broken: %+v", r)
	}
	if _, ok := ex.Wait(); ok {
		t.Fatal("drained executor must report not-ok")
	}
}

// nonFinite are the objective values every engine must turn into the same
// failed evaluation.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

func TestGoExecutorNaNIsFailure(t *testing.T) {
	for _, bad := range nonFinite {
		bad := bad
		ex := NewGo(1, func(x []float64) float64 { return bad })
		if err := ex.Launch([]float64{1}); err != nil {
			t.Fatal(err)
		}
		r, ok := ex.Wait()
		if !ok || !errors.Is(r.Err, ErrNaN) || !math.IsNaN(r.Y) {
			t.Fatalf("objective value %v must fail with ErrNaN and Y = NaN, got %+v", bad, r)
		}
		if ex.Idle() != 1 {
			t.Fatal("failed eval leaked its worker")
		}
	}
}

func TestGoExecutorTimeout(t *testing.T) {
	ex := NewGoCtx(1, func(ctx context.Context, x []float64) (float64, error) {
		select {
		case <-time.After(5 * time.Second):
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}, GoOptions{Timeout: 20 * time.Millisecond})
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	r, ok := ex.Wait()
	if !ok || !errors.Is(r.Err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %+v", r)
	}
	if ex.Idle() != 1 {
		t.Fatal("timed-out eval leaked its worker")
	}
}

func TestGoExecutorRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	ex := NewGoCtx(1, func(_ context.Context, x []float64) (float64, error) {
		if calls.Add(1) == 1 {
			panic("flaky infrastructure")
		}
		return 42, nil
	}, GoOptions{Retries: 2})
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	r, ok := ex.Wait()
	if !ok || r.Err != nil || r.Y != 42 {
		t.Fatalf("retry must recover the transient failure: %+v", r)
	}
	if r.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", r.Attempts)
	}
}

func TestGoExecutorRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ex := NewGoCtx(1, func(_ context.Context, x []float64) (float64, error) {
		calls.Add(1)
		return 0, errors.New("permanently broken")
	}, GoOptions{Retries: 3})
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	r, _ := ex.Wait()
	if r.Err == nil || r.Attempts != 4 {
		t.Fatalf("want failure after 4 attempts, got %+v", r)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("objective called %d times, want 4", got)
	}
}

func TestGoExecutorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	ex := NewGoCtx(2, func(c context.Context, x []float64) (float64, error) {
		started <- struct{}{}
		<-c.Done()
		return 0, c.Err()
	}, GoOptions{Context: ctx})
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	r, ok := ex.Wait()
	if !ok || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("in-flight eval must fail with Canceled, got %+v", r)
	}
	if err := ex.Launch([]float64{2}); err == nil {
		t.Fatal("Launch on a cancelled pool must fail")
	}
	if ex.Idle() != 2 {
		t.Fatal("cancellation leaked a worker")
	}
}

// TestGoExecutorStress drives many launches with random completion order,
// injected panics, and NaN objectives under the race detector, and proves
// the attribution invariant: per worker slot, evaluation intervals never
// overlap — two concurrently running evaluations cannot share a Worker.
func TestGoExecutorStress(t *testing.T) {
	const (
		workers = 8
		total   = 400
	)
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	durations := make(map[int]time.Duration, total)

	ex := NewGo(workers, func(x []float64) float64 {
		id := int(x[0])
		mu.Lock()
		d := durations[id]
		mu.Unlock()
		time.Sleep(d)
		switch id % 10 {
		case 3:
			panic("injected crash")
		case 7:
			return math.NaN()
		}
		return x[0]
	})

	launch := func(i int) {
		mu.Lock()
		durations[i] = time.Duration(rng.Intn(2000)) * time.Microsecond
		mu.Unlock()
		if err := ex.Launch([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	launched := 0
	for launched < workers {
		launch(launched)
		launched++
	}
	var results []Result
	for len(results) < total {
		r, ok := ex.Wait()
		if !ok {
			t.Fatalf("executor drained after %d results", len(results))
		}
		if r.Worker < 0 || r.Worker >= workers {
			t.Fatalf("worker index %d out of range", r.Worker)
		}
		id := int(r.X[0])
		switch {
		case id%10 == 3:
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("eval %d must fail with PanicError, got %v", id, r.Err)
			}
		case id%10 == 7:
			if !errors.Is(r.Err, ErrNaN) {
				t.Fatalf("eval %d must fail with ErrNaN, got %v", id, r.Err)
			}
		default:
			if r.Err != nil || r.Y != r.X[0] {
				t.Fatalf("eval %d corrupted: %+v", id, r)
			}
		}
		results = append(results, r)
		if launched < total {
			launch(launched)
			launched++
		}
	}
	if ex.Idle() != workers {
		t.Fatal("executor not drained")
	}
	if _, ok := ex.Wait(); ok {
		t.Fatal("drained executor must report not-ok")
	}

	// Attribution invariant: per worker, [Start, End] intervals are disjoint.
	// A slot is held from before Start until after End (released only when
	// Wait absorbs the result), so any overlap means two in-flight
	// evaluations shared a Worker index.
	perWorker := make(map[int][]Result)
	seen := make(map[int]bool)
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("duplicate result ID %d", r.ID)
		}
		seen[r.ID] = true
		perWorker[r.Worker] = append(perWorker[r.Worker], r)
	}
	for w, rs := range perWorker {
		sortResultsByStart(rs)
		for i := 1; i < len(rs); i++ {
			if rs[i].Start < rs[i-1].End {
				t.Fatalf("worker %d ran two evaluations concurrently: [%v,%v] overlaps [%v,%v] (ids %d, %d)",
					w, rs[i-1].Start, rs[i-1].End, rs[i].Start, rs[i].End, rs[i-1].ID, rs[i].ID)
			}
		}
	}
}

func sortResultsByStart(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Start < rs[j-1].Start; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func TestVirtualNaNIsFailure(t *testing.T) {
	for _, bad := range nonFinite {
		testVirtualFailure(t, bad)
	}
}

func testVirtualFailure(t *testing.T, bad float64) {
	ex := NewVirtual(2, func(x []float64) (float64, float64) {
		if x[0] < 0 {
			return bad, 1
		}
		return x[0], 1
	})
	if err := ex.Launch([]float64{-1}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch([]float64{2}); err != nil {
		t.Fatal(err)
	}
	sawFail, sawOK := false, false
	for i := 0; i < 2; i++ {
		r, ok := ex.Wait()
		if !ok {
			t.Fatal("missing result")
		}
		if r.X[0] < 0 {
			sawFail = true
			if !errors.Is(r.Err, ErrNaN) || r.Attempts != 1 || !math.IsNaN(r.Y) {
				t.Fatalf("objective value %v must fail with ErrNaN and Y = NaN: %+v", bad, r)
			}
		} else {
			sawOK = true
			if r.Err != nil {
				t.Fatalf("healthy eval failed: %+v", r)
			}
		}
	}
	if !sawFail || !sawOK {
		t.Fatal("expected one failed and one healthy result")
	}
	if ex.Idle() != 2 {
		t.Fatal("virtual failure leaked a worker")
	}
}

func TestUtilization(t *testing.T) {
	rs := []Result{
		{Worker: 0, Start: 0, End: 10},
		{Worker: 1, Start: 0, End: 4},
		{Worker: 1, Start: 4, End: 6},
	}
	u := Utilization(rs, 3)
	if len(u) != 3 {
		t.Fatalf("len = %d", len(u))
	}
	if math.Abs(u[0]-1) > 1e-12 || math.Abs(u[1]-0.6) > 1e-12 || u[2] != 0 {
		t.Fatalf("utilization = %v", u)
	}
	if u := Utilization(nil, 2); u[0] != 0 || u[1] != 0 {
		t.Fatal("empty runs must report zero utilization")
	}
}

func TestGoExecutorPoolDeadlineIsNotEvalTimeout(t *testing.T) {
	// A pool-level deadline must surface as the pool's context error, not be
	// misclassified as a per-evaluation ErrTimeout, even when Timeout is set.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	ex := NewGoCtx(1, func(c context.Context, x []float64) (float64, error) {
		<-c.Done()
		return 0, c.Err()
	}, GoOptions{Context: ctx, Timeout: 10 * time.Second})
	if err := ex.Launch([]float64{1}); err != nil {
		t.Fatal(err)
	}
	r, ok := ex.Wait()
	if !ok {
		t.Fatal("missing result")
	}
	if errors.Is(r.Err, ErrTimeout) {
		t.Fatalf("pool deadline misclassified as eval timeout: %v", r.Err)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("want the pool's DeadlineExceeded, got %v", r.Err)
	}
}
