package circuit

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// ACResult holds the complex node solutions of a frequency sweep.
type ACResult struct {
	c     *Circuit
	Freqs []float64      // Hz
	X     [][]complex128 // one unknown vector per frequency
}

// ACOptions tunes the frequency sweep execution. The zero value evaluates
// the sweep in parallel across min(GOMAXPROCS, maxACWorkers) workers.
type ACOptions struct {
	// Workers bounds the parallel worker pool evaluating frequency points
	// (each worker owns a reusable compiled workspace). 0 selects
	// min(GOMAXPROCS, 8); 1 runs the sweep serially — useful when the
	// caller already parallelizes at the evaluation level.
	Workers int
}

// maxACWorkers caps the default AC worker pool: beyond a handful of
// workers the per-point solves are too small to amortize scheduling.
const maxACWorkers = 8

// AC runs a small-signal sweep at the given frequencies, linearizing all
// nonlinear devices at op (which may come from OP or, for linear
// small-signal macromodels, be a zero vector). Default sweep options.
func (c *Circuit) AC(op *Solution, freqs []float64) (*ACResult, error) {
	return c.ACSweep(op, freqs, ACOptions{})
}

// ACSweep is AC with explicit sweep options. On the sparse kernel each
// worker stamps the frequency-independent entries once, then per point
// copies that snapshot, re-stamps only the reactive devices, and refactors
// on the frozen pattern (falling back to a full re-pivoting factorization
// when the frequency has shifted the pivot balance); on the dense
// reference each point builds and factors a fresh matrix.
func (c *Circuit) ACSweep(op *Solution, freqs []float64, aco ACOptions) (*ACResult, error) {
	if err := c.Compile(); err != nil {
		return nil, err
	}
	var opX []float64
	if op != nil {
		opX = op.X
	} else {
		opX = make([]float64, c.unknowns)
	}
	res := &ACResult{c: c, Freqs: append([]float64(nil), freqs...), X: make([][]complex128, len(freqs))}
	// One flat backing array for every frequency's solution: a single
	// allocation, and workers write disjoint n-sized windows.
	flat := make([]complex128, c.unknowns*len(freqs))
	for k := range res.X {
		res.X[k] = flat[k*c.unknowns : (k+1)*c.unknowns : (k+1)*c.unknowns]
	}

	workers := aco.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > maxACWorkers {
			workers = maxACWorkers
		}
	}
	if workers > len(freqs) {
		workers = len(freqs)
	}
	if workers <= 1 {
		ws := c.acWorkspaces(1)[0]
		return res, c.acChunk(ws, opX, freqs, 0, len(freqs), res)
	}
	pool := c.acWorkspaces(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	// Contiguous chunks keep each worker sweeping monotonically in
	// frequency, which maximizes refactor (vs. re-pivot) hits.
	per := (len(freqs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(freqs) {
			hi = len(freqs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = c.acChunk(pool[w], opX, freqs, lo, hi, res)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// acChunk evaluates freqs[lo:hi] on one workspace, writing solutions into
// res.X. Safe to run concurrently with other chunks: each frequency index
// is owned by exactly one worker and the workspace is private.
func (c *Circuit) acChunk(ws *acWorkspace, opX []float64, freqs []float64, lo, hi int, res *ACResult) error {
	ws.e.op = opX
	ws.stampBase()
	for k := lo; k < hi; k++ {
		ws.e.omega = 2 * math.Pi * freqs[k]
		ws.assemble()
		if err := ws.solve(res.X[k]); err != nil {
			return fmt.Errorf("circuit %q: AC solve at %g Hz: %w", c.Name, freqs[k], err)
		}
	}
	return nil
}

// V returns the complex voltage of a named node at frequency index k.
func (r *ACResult) V(k int, node string) complex128 {
	idx, ok := r.c.nodes[node]
	if !ok || idx == 0 {
		return 0
	}
	return r.X[k][idx-1]
}

// LogSpace returns n log-spaced frequencies from f0 to f1 inclusive.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n < 2 {
		return []float64{f0}
	}
	out := make([]float64, n)
	l0, l1 := math.Log10(f0), math.Log10(f1)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}
