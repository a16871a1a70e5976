package optimize

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"easybo/internal/stats"
)

// ObjectiveFactory builds a BatchObjective for exclusive use by one worker
// goroutine for one maximization: it is called once per worker, and that
// worker's candidate sweep and simplex refinements all go through the one
// objective. Factories let objectives carry per-worker scratch (e.g. a
// surrogate.Predictor and its batch buffers) so the hot loop allocates
// nothing while staying safe under concurrency.
type ObjectiveFactory func() BatchObjective

// MaximizeParallel is the multi-start global maximizer with the candidate
// sweep and the simplex refinements fanned out across Workers goroutines:
// a Latin-hypercube candidate sweep, scored MaxBatch points per objective
// call, then Nelder-Mead refinement of the best candidates — each worker
// advancing its share of the simplexes in lockstep, one batched evaluation
// per simplex step — reduced to the single best point found.
//
// Determinism: every random draw happens up front on the caller's rng
// (candidate locations), candidate values are written by index, the top
// candidates are ranked with an explicit index tie-break, and the final
// reduction prefers the lower-ranked start on equal values. A
// BatchObjective scores each point independently of its batch, so neither
// the worker count nor the grouping it induces can change a value — the
// result is bit-identical for any worker count, including 1.
func MaximizeParallel(newF ObjectiveFactory, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	d := len(lo)
	opts.defaults(d)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.Candidates {
		workers = opts.Candidates
	}

	pts := stats.LatinHypercubeIn(rng, opts.Candidates, lo, hi)

	// Worker w builds fs[w] in the sweep and keeps it for its refinements.
	fs := make([]BatchObjective, workers)
	vals := make([]float64, len(pts))
	fanOut(workers, func(w int) {
		fs[w] = newF()
		from, to := w*len(pts)/workers, (w+1)*len(pts)/workers
		evalChunked(fs[w], pts[from:to], vals[from:to])
	})

	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		//easybolint:ok floateq deterministic sort tie-break: only exactly equal objective values fall through to the index order
		if vals[ia] != vals[ib] {
			return vals[ia] > vals[ib]
		}
		return ia < ib
	})

	nref := opts.Refine
	if nref > len(order) {
		nref = len(order)
	}
	starts := make([]*Simplex, nref)
	for r := range starts {
		starts[r] = NewSimplex(pts[order[r]], lo, hi, NelderMeadOptions{MaxEvals: opts.RefineEval})
	}
	rw := workers
	if rw > nref {
		rw = nref
	}
	fanOut(rw, func(w int) {
		var mine []*Simplex
		for r := w; r < nref; r += rw {
			mine = append(mine, starts[r])
		}
		lockstep(fs[w], mine)
	})

	bestX := pts[order[0]]
	bestV := vals[order[0]]
	for _, s := range starts {
		if s.v[0] > bestV {
			bestX, bestV = s.x[0], s.v[0]
		}
	}
	return append([]float64(nil), bestX...), bestV
}

// fanOut runs body(0..n-1), inline for n == 1 and on n goroutines otherwise,
// and returns when every call has.
func fanOut(n int, body func(w int)) {
	if n == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// evalChunked scores xs into out, at most MaxBatch points per call of f.
func evalChunked(f BatchObjective, xs [][]float64, out []float64) {
	for len(xs) > MaxBatch {
		f(xs[:MaxBatch], out[:MaxBatch])
		xs, out = xs[MaxBatch:], out[MaxBatch:]
	}
	if len(xs) > 0 {
		f(xs, out)
	}
}

// lockstep runs the simplexes to completion together: each round scores
// every running simplex's pending point in one batch and tells the values
// back. A simplex sees exactly the evaluations it would see alone.
func lockstep(f BatchObjective, running []*Simplex) {
	xs := make([][]float64, len(running))
	vals := make([]float64, len(running))
	for {
		n := 0
		for _, s := range running {
			if x := s.Next(); x != nil {
				running[n], xs[n] = s, x
				n++
			}
		}
		if n == 0 {
			return
		}
		running = running[:n]
		evalChunked(f, xs[:n], vals[:n])
		for i, s := range running {
			s.Tell(vals[i])
		}
	}
}
