// Package sched provides the parallel-evaluation engines behind batch
// Bayesian optimization:
//
//   - VirtualExecutor runs evaluations on B simulated workers in virtual
//     time. Each evaluation carries a deterministic duration (the simulated
//     HSPICE runtime of that design point), so asynchronous-vs-synchronous
//     wall-clock comparisons (paper Fig. 1, the "Time" columns of Tables
//     I/II, Figures 4/6) are exactly reproducible on any machine.
//   - GoExecutor runs evaluations on real goroutines for production use,
//     with wall-clock timing, panic recovery, per-evaluation timeouts,
//     bounded retries, and context-based cancellation.
//
// Both satisfy Executor, so the BO drivers are agnostic to the engine, and
// both track per-worker occupancy through the same slot pool: a Result's
// Worker index is the slot the evaluation really occupied, and two in-flight
// evaluations never share one.
//
// # Failure semantics
//
// An evaluation can fail — the objective panics, returns NaN, exceeds its
// timeout, or the pool is cancelled. Failures are delivered, never dropped:
// Wait returns the evaluation as a Result with Err set (and Y forced to NaN),
// the worker slot is released, and the executor keeps running. A panicking
// objective therefore costs one failed Result, not a leaked worker or a
// deadlocked Wait. Callers decide policy (skip, resubmit, abort); see
// core.AskTell.Run.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Sentinel evaluation failures. A Result.Err either is one of these (or
// wraps one), carries a *PanicError, or is a context error from the pool's
// cancellation.
var (
	// ErrNaN marks an evaluation whose objective returned NaN or ±Inf.
	ErrNaN = errors.New("sched: evaluation returned NaN")
	// ErrTimeout marks an evaluation that exceeded the per-eval timeout.
	ErrTimeout = errors.New("sched: evaluation timed out")
)

// ValueErr classifies an objective value: ErrNaN for NaN and ±Inf, which no
// surrogate can train on, nil for anything finite. Every place that turns a
// raw objective value into a Result asks here, so a diverged simulation is
// the same failed evaluation on every engine.
func ValueErr(y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return ErrNaN
	}
	return nil
}

// PanicError carries a recovered objective panic through Result.Err.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: evaluation panicked: %v", e.Value)
}

// Result is one finished evaluation.
type Result struct {
	ID     int       // submission order, starting at 0
	X      []float64 // evaluated point
	Y      float64   // objective value (NaN when Err != nil)
	Start  float64   // start time, seconds (virtual or wall since creation)
	End    float64   // finish time, seconds
	Worker int       // worker slot in [0, Workers) that ran the evaluation
	Err    error     // non-nil when the evaluation failed
	// Attempts is how many times the evaluation ran, 1 + retries consumed.
	// Always 1 on the virtual engine.
	Attempts int
}

// Executor evaluates points on a pool of workers. It tracks which worker
// slots are taken, not which points are running: the busy set X̂ of paper
// §III-C is the driving machine's pending set (core.AskTell.PendingPoints),
// one entry per launched, not yet observed point.
type Executor interface {
	// Workers returns the pool size B.
	Workers() int
	// Idle returns how many workers are free right now.
	Idle() int
	// Launch starts evaluating x on a free worker. It returns an error if no
	// worker is idle (or the pool has been cancelled).
	Launch(x []float64) error
	// Wait blocks until the earliest running evaluation finishes and returns
	// it — including failed evaluations, which carry Result.Err. ok is false
	// when nothing is running.
	Wait() (r Result, ok bool)
	// Now returns the current time in seconds (virtual or wall).
	Now() float64
}

// Utilization computes the fraction of the makespan each worker spent busy,
// from a completed run's results (failed evaluations occupied their slot and
// count too). The makespan is the largest End observed; a run with no
// results returns all zeros.
func Utilization(results []Result, workers int) []float64 {
	util := make([]float64, workers)
	makespan := 0.0
	for _, r := range results {
		if r.End > makespan {
			makespan = r.End
		}
	}
	if makespan <= 0 {
		return util
	}
	for _, r := range results {
		if r.Worker >= 0 && r.Worker < workers {
			util[r.Worker] += (r.End - r.Start) / makespan
		}
	}
	return util
}

// ---------------------------------------------------------------- virtual

// VirtualEval is the evaluation function for a VirtualExecutor: it returns
// the objective value and the simulated duration (seconds) of the run. A
// non-finite objective value marks the evaluation as failed (ValueErr), so
// fault handling can be exercised deterministically in virtual time.
type VirtualEval func(x []float64) (y, cost float64)

// VirtualExecutor is a deterministic discrete-event executor: Launch
// evaluates the objective immediately (computing y and its simulated cost)
// but reveals the result only when the virtual clock reaches its finish
// time. The clock advances inside Wait.
type VirtualExecutor struct {
	eval VirtualEval
	now  float64
	next int

	slots   *slotPool
	running runHeap
}

// runHeap orders the running evaluations by finish time.
type runHeap []Result

func (h runHeap) Len() int      { return len(h) }
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h runHeap) Less(i, j int) bool {
	if h[i].End != h[j].End {
		return h[i].End < h[j].End
	}
	return h[i].ID < h[j].ID // deterministic tie-break
}
func (h *runHeap) Push(x any) { *h = append(*h, x.(Result)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// NewVirtual creates a virtual executor with b workers.
func NewVirtual(b int, eval VirtualEval) *VirtualExecutor {
	if b < 1 {
		panic("sched: need at least one worker")
	}
	if eval == nil {
		panic("sched: nil evaluation function")
	}
	return &VirtualExecutor{eval: eval, slots: newSlotPool(b)}
}

// Workers implements Executor.
func (v *VirtualExecutor) Workers() int { return v.slots.size() }

// Idle implements Executor.
func (v *VirtualExecutor) Idle() int { return v.slots.idle() }

// Now implements Executor.
func (v *VirtualExecutor) Now() float64 { return v.now }

// Launch implements Executor.
func (v *VirtualExecutor) Launch(x []float64) error {
	worker, ok := v.slots.acquire()
	if !ok {
		return errors.New("sched: no idle worker")
	}
	xc := append([]float64(nil), x...)
	y, cost := v.eval(xc)
	if cost < 0 {
		v.slots.release(worker)
		return fmt.Errorf("sched: negative cost %g", cost)
	}
	err := ValueErr(y)
	if err != nil {
		y = math.NaN()
	}
	heap.Push(&v.running, Result{
		ID: v.next, X: xc, Y: y,
		Start: v.now, End: v.now + cost, Worker: worker,
		Err: err, Attempts: 1,
	})
	v.next++
	return nil
}

// Wait implements Executor: it advances the virtual clock to the earliest
// finish time and returns that result.
func (v *VirtualExecutor) Wait() (Result, bool) {
	if v.running.Len() == 0 {
		return Result{}, false
	}
	r := heap.Pop(&v.running).(Result)
	if r.End > v.now {
		v.now = r.End
	}
	v.slots.release(r.Worker)
	return r, true
}
