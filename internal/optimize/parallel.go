package optimize

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"easybo/internal/stats"
)

// ObjectiveFactory builds a BatchObjective for exclusive use by one worker
// goroutine for one maximization: it is called once per worker, and every
// point that worker scores — its slice of the candidate sweep, then whichever
// simplexes it takes up in the refinement — goes through the one objective.
// Factories let objectives carry per-worker scratch (e.g. a
// surrogate.Predictor and its batch buffers) so the hot loop allocates
// nothing while staying safe under concurrency.
type ObjectiveFactory func() BatchObjective

// MaximizeParallel is the multi-start global maximizer with the candidate
// sweep and the simplex refinements fanned out across Workers goroutines:
// a Latin-hypercube candidate sweep, scored MaxBatch points per objective
// call, then Nelder-Mead refinement of the best candidates — one worker
// steps them all in lockstep, several pull them from a shared queue (refine)
// — reduced to the single best point found.
//
// Determinism: every random draw happens up front on the caller's rng
// (candidate locations), candidate values are written by index, the top
// candidates are ranked with an explicit index tie-break, and the final
// reduction prefers the lower-ranked start on equal values. A
// BatchObjective scores each point independently of its batch, so neither
// the worker count, nor the grouping it induces, nor which worker advances
// which simplex when can change a value — the result is bit-identical for
// any worker count, including 1, and any schedule.
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

	// Worker w builds fs[w] in the sweep and keeps it for the refinement.
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
	refine(fs, starts)

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

// refineQuantum is how many rounds a worker advances a simplex before it
// looks for another one waiting. Long enough that the hand-off (a channel
// send and receive, a simplex whose vertices another core last wrote) is
// small against the rounds between two of them even at a 1 µs prediction;
// short enough that two workers sharing three equal simplexes finish within
// a fraction of one simplex of each other (DESIGN.md §14.3).
const refineQuantum = 32

// refine runs every simplex to completion on min(len(fs), len(starts))
// workers, worker w evaluating through fs[w] alone. One worker steps them
// all together, one batch per round. Several workers share one queue: each
// takes a simplex, advances it refineQuantum rounds at a time, and puts it
// back only when another is waiting — so no worker idles while a simplex is
// unclaimed, whatever the two counts are. A simplex belongs to whoever took
// it from the queue, and between quanta it has no point outstanding.
//
// A worker that finds the queue empty is done. Every live simplex is then in
// another worker's hands and stays there: a simplex goes back only when the
// queue already holds one, and whoever puts one back takes one out next. So
// nothing is ever left for a worker that has gone, and the queue needs no
// closing.
//
// The schedule may vary from run to run; the result cannot, because a
// BatchObjective scores a point the same in any batch on any worker, so each
// simplex sees the values it would see alone.
func refine(fs []BatchObjective, starts []*Simplex) {
	workers := min(len(fs), len(starts))
	if workers <= 1 {
		// On a copy: lockstep compacts its slice, the caller reads starts.
		all := append([]*Simplex(nil), starts...)
		lockstep(fs[0], all, make([][]float64, len(all)), make([]float64, len(all)), math.MaxInt)
		return
	}
	// Room for every simplex at once: putting one back never blocks.
	queue := make(chan *Simplex, len(starts))
	for _, s := range starts {
		queue <- s
	}
	fanOut(workers, func(w int) {
		// One simplex at a time, and one point and value for it, for the
		// worker's whole run.
		mine, xs, vals := make([]*Simplex, 1), make([][]float64, 1), make([]float64, 1)
		for {
			select {
			case mine[0] = <-queue:
			default:
				return
			}
			for lockstep(fs[w], mine, xs, vals, refineQuantum) > 0 {
				if len(queue) > 0 {
					queue <- mine[0]
					break
				}
			}
		}
	})
}

// lockstep advances the simplexes together for at most rounds rounds: each
// round scores every running simplex's pending point in one batch and tells
// the values back. A simplex sees exactly the evaluations it would see
// alone. It returns how many are still running, compacted to the front of
// running. xs and vals are scratch, one entry per simplex, so that a caller
// advancing a quantum at a time allocates them once.
func lockstep(f BatchObjective, running []*Simplex, xs [][]float64, vals []float64, rounds int) int {
	for r := 0; ; r++ {
		n := 0
		for _, s := range running {
			if x := s.Next(); x != nil {
				running[n], xs[n] = s, x
				n++
			}
		}
		if n == 0 || r == rounds {
			return n
		}
		running = running[:n]
		evalChunked(f, xs[:n], vals[:n])
		for i, s := range running {
			s.Tell(vals[i])
		}
	}
}
