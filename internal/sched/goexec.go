package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// GoEval is the plain evaluation function for a GoExecutor.
type GoEval func(x []float64) float64

// GoEvalCtx is the context-aware evaluation function for a GoExecutor.
// Long-running objectives should observe ctx so cancellation and timeouts
// take effect promptly; returning a non-nil error marks the evaluation as
// failed.
type GoEvalCtx func(ctx context.Context, x []float64) (float64, error)

// GoOptions tunes the fault tolerance of a GoExecutor. The zero value means
// no cancellation, no timeout, no retries — plus the always-on guarantees
// (panic recovery, NaN detection, correct worker attribution).
type GoOptions struct {
	// Context cancels the whole pool: Launch refuses new work once it is
	// done, and in-flight evaluations are abandoned (their Result carries
	// the context error).
	Context context.Context
	// Timeout bounds each evaluation attempt; an attempt exceeding it is
	// abandoned and fails with ErrTimeout.
	Timeout time.Duration
	// Retries is how many additional attempts a failed evaluation gets on
	// its worker slot before the failure is reported.
	Retries int
}

// GoExecutor evaluates points on real goroutines; durations are wall-clock.
// Failed evaluations (panic, NaN, timeout, error, cancellation) surface as
// Results with Err set — the worker slot is always recovered, so Wait never
// deadlocks and worker indices of concurrently running evaluations are
// always distinct.
//
// An abandoned evaluation (timeout or cancellation) cannot be forcibly
// stopped: its goroutine may keep running in the background while the slot
// is reused. Context-aware objectives (GoEvalCtx observing ctx) avoid that.
//
// GoExecutor is safe for use by a single driving goroutine (the BO loop).
type GoExecutor struct {
	evals []GoEvalCtx // one evaluator per worker slot
	opts  GoOptions
	ctx   context.Context
	t0    time.Time
	done  chan Result

	mu    sync.Mutex
	next  int
	slots *slotPool
}

// NewGo creates a goroutine-backed executor with b workers and default
// options (no cancellation, no timeout, no retries).
func NewGo(b int, eval GoEval) *GoExecutor {
	if eval == nil {
		panic("sched: nil evaluation function")
	}
	return NewGoCtx(b, func(_ context.Context, x []float64) (float64, error) {
		return eval(x), nil
	}, GoOptions{})
}

// NewGoCtx creates a goroutine-backed executor with b workers, a
// context-aware evaluation function, and explicit fault-tolerance options.
// The evaluation function is shared by every worker and must be safe for
// concurrent use; see NewGoCtxPerWorker for stateful per-worker evaluators.
func NewGoCtx(b int, eval GoEvalCtx, opts GoOptions) *GoExecutor {
	if b < 1 {
		panic("sched: need at least one worker")
	}
	if eval == nil {
		panic("sched: nil evaluation function")
	}
	evals := make([]GoEvalCtx, b)
	for i := range evals {
		evals[i] = eval
	}
	return NewGoCtxPerWorker(evals, opts)
}

// NewGoCtxPerWorker creates a goroutine-backed executor with one evaluator
// per worker slot (pool size = len(evals)). The slot pool guarantees a
// worker index is held by at most one in-flight evaluation, so each
// evaluator runs strictly sequentially and may own mutable simulator state
// (a compiled circuit, solver workspaces) without synchronization.
//
// Caveat: an abandoned attempt (Timeout or cancellation with an evaluator
// that ignores ctx) may still be running when its slot is reused, which
// would let two goroutines touch the same evaluator. Combine stateful
// per-worker evaluators with Timeout only if they observe ctx; otherwise
// use NewGoCtx with an evaluator that is safe for concurrent use (e.g.
// drawing simulators from a pool).
func NewGoCtxPerWorker(evals []GoEvalCtx, opts GoOptions) *GoExecutor {
	if len(evals) < 1 {
		panic("sched: need at least one worker")
	}
	for _, ev := range evals {
		if ev == nil {
			panic("sched: nil evaluation function")
		}
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	b := len(evals)
	return &GoExecutor{
		evals: evals, opts: opts, ctx: opts.Context, t0: time.Now(),
		done:  make(chan Result, b),
		slots: newSlotPool(b),
	}
}

// Workers implements Executor.
func (g *GoExecutor) Workers() int { return g.slots.size() }

// Idle implements Executor.
func (g *GoExecutor) Idle() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.slots.idle()
}

// Now implements Executor.
func (g *GoExecutor) Now() float64 { return time.Since(g.t0).Seconds() }

// Launch implements Executor. The evaluation runs on the lowest free worker
// slot, which stays occupied until Wait absorbs its result.
func (g *GoExecutor) Launch(x []float64) error {
	if err := g.ctx.Err(); err != nil {
		return fmt.Errorf("sched: pool cancelled: %w", err)
	}
	g.mu.Lock()
	worker, ok := g.slots.acquire()
	if !ok {
		g.mu.Unlock()
		return errors.New("sched: no idle worker")
	}
	id := g.next
	g.next++
	g.mu.Unlock()

	go g.run(id, worker, append([]float64(nil), x...))
	return nil
}

// run performs up to 1+Retries attempts on the acquired slot and delivers
// exactly one Result. It owns no lock; the slot is released by Wait.
func (g *GoExecutor) run(id, worker int, x []float64) {
	start := g.Now()
	var y float64
	var err error
	attempts := 0
	for {
		attempts++
		y, err = g.attempt(g.evals[worker], x)
		if err == nil || attempts > g.opts.Retries || g.ctx.Err() != nil {
			break
		}
	}
	g.done <- Result{
		ID: id, X: x, Y: y, Start: start, End: g.Now(), Worker: worker,
		Err: err, Attempts: attempts,
	}
}

// attempt runs the objective once with panic recovery, the per-eval timeout,
// and pool cancellation applied.
func (g *GoExecutor) attempt(eval GoEvalCtx, x []float64) (float64, error) {
	ctx := g.ctx
	if g.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.opts.Timeout)
		defer cancel()
	}
	if ctx.Done() == nil {
		// Nothing can interrupt this attempt: evaluate on this goroutine.
		return safeEval(eval, ctx, x)
	}
	type out struct {
		y   float64
		err error
	}
	ch := make(chan out, 1)
	go func() {
		y, err := safeEval(eval, ctx, x)
		ch <- out{y, err}
	}()
	select {
	case o := <-ch:
		return o.y, o.err
	case <-ctx.Done():
		// Abandon the attempt; its goroutine may finish in the background.
		// Pool-level cancellation (or a pool deadline) takes precedence over
		// the per-evaluation timeout classification: only a deadline the
		// Timeout itself introduced is an ErrTimeout.
		if perr := g.ctx.Err(); perr != nil {
			return math.NaN(), perr
		}
		if g.opts.Timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return math.NaN(), ErrTimeout
		}
		return math.NaN(), ctx.Err()
	}
}

// safeEval invokes the objective, converting panics to *PanicError and
// non-finite objective values to ErrNaN. Y is NaN whenever the error is non-nil.
func safeEval(eval GoEvalCtx, ctx context.Context, x []float64) (y float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			y = math.NaN()
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	y, err = eval(ctx, x)
	if err == nil {
		err = ValueErr(y)
	}
	if err != nil {
		y = math.NaN()
	}
	return y, err
}

// Wait implements Executor.
func (g *GoExecutor) Wait() (Result, bool) {
	g.mu.Lock()
	if g.slots.inUse() == 0 {
		g.mu.Unlock()
		return Result{}, false
	}
	g.mu.Unlock()
	r := <-g.done
	g.mu.Lock()
	g.slots.release(r.Worker)
	g.mu.Unlock()
	return r, true
}
