package circuit

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// ACResult holds the complex node solutions of a frequency sweep.
type ACResult struct {
	c     *Circuit
	Freqs []float64      // Hz
	X     [][]complex128 // one unknown vector per frequency
	flat  []complex128   // the one backing array X's vectors window
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

// ACSweep is AC with explicit sweep options, into a new result; see
// ACSweepInto.
func (c *Circuit) ACSweep(op *Solution, freqs []float64, aco ACOptions) (*ACResult, error) {
	res := new(ACResult)
	if err := c.ACSweepInto(res, op, freqs, aco); err != nil {
		return nil, err
	}
	return res, nil
}

// ACSweepInto runs the sweep of ACSweep and writes it into res, reusing
// res's frequency grid, solution vectors and their one backing array
// wherever their capacity suffices: a warm serial sweep allocates nothing.
// On the sparse kernel each worker stamps the frequency-independent
// entries once, then per point copies that snapshot, re-stamps only the
// reactive devices, and refactors on the frozen pattern (falling back to a
// full re-pivoting factorization when the frequency has shifted the pivot
// balance); on the dense reference each point builds and factors a fresh
// matrix. The next call on the same res overwrites it; the slices of an
// earlier sweep alias the new one. After an error res's contents are
// unspecified.
func (c *Circuit) ACSweepInto(res *ACResult, op *Solution, freqs []float64, aco ACOptions) error {
	if err := c.Compile(); err != nil {
		return err
	}
	var opX []float64 // nil: each workspace's zero operating point
	if op != nil {
		opX = op.X
	}
	n, nf := c.unknowns, len(freqs)
	res.c = c
	res.Freqs = append(res.Freqs[:0], freqs...)
	// One flat backing array for every frequency's solution: workers write
	// disjoint n-sized windows.
	res.flat = slices.Grow(res.flat[:0], n*nf)[:n*nf]
	res.X = slices.Grow(res.X[:0], nf)[:nf]
	for k := range res.X {
		res.X[k] = res.flat[k*n : (k+1)*n : (k+1)*n]
	}

	workers := aco.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > maxACWorkers {
			workers = maxACWorkers
		}
	}
	if workers > nf {
		workers = nf
	}
	if workers <= 1 {
		ws := c.acWorkspaces(1)[0]
		return c.acChunk(ws, opX, 0, nf, res)
	}
	pool := c.acWorkspaces(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	// Contiguous chunks keep each worker sweeping monotonically in
	// frequency, which maximizes refactor (vs. re-pivot) hits.
	per := (nf + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > nf {
			hi = nf
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		// opX goes by argument: a captured variable that is assigned
		// twice would live on the heap for the serial sweep as well.
		go func(w, lo, hi int, opX []float64) {
			defer wg.Done()
			errs[w] = c.acChunk(pool[w], opX, lo, hi, res)
		}(w, lo, hi, opX)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// acChunk evaluates res.Freqs[lo:hi] on one workspace, linearized at opX
// (the workspace's zero vector when nil), writing solutions into res.X.
// Safe to run concurrently with other chunks: each frequency index is
// owned by exactly one worker and the workspace is private.
func (c *Circuit) acChunk(ws *acWorkspace, opX []float64, lo, hi int, res *ACResult) error {
	ws.e.op = opX
	if opX == nil {
		ws.e.op = ws.zeroOP
	}
	ws.stampBase()
	for k := lo; k < hi; k++ {
		ws.e.omega = 2 * math.Pi * res.Freqs[k]
		ws.assemble()
		if err := ws.solve(res.X[k]); err != nil {
			return fmt.Errorf("circuit %q: AC solve at %g Hz: %w", c.Name, res.Freqs[k], err)
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
