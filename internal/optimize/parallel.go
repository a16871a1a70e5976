package optimize

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// — reduced to the single best point found. It is the derivative-free
// entry; an objective that has a gradient to give goes through
// MaximizeGrad, which differs only in what refines.
//
// Determinism: every random draw happens up front on the caller's rng
// (candidate locations), candidate values are written by index, the top
// candidates are ranked with an explicit index tie-break, and the final
// reduction prefers the lower-ranked start on equal values. A
// BatchObjective scores each point independently of its batch, so neither
// the worker count, nor the grouping it induces, nor which worker advances
// which search when can change a value — the result is bit-identical for
// any worker count, including 1, and any schedule. The floor a sweep call
// carries does depend on the worker's range, but it only decides which
// candidates that cannot be refined go unscored.
func MaximizeParallel(newF ObjectiveFactory, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	workers := opts.resolve(len(lo))
	// Worker w builds fs[w] in the sweep and keeps it for the refinement.
	fs := make([]BatchObjective, workers)
	sw := sweep(lo, hi, rng, opts, workers, func(w int) BatchObjective {
		fs[w] = newF()
		return fs[w]
	})
	starts := make([]*Simplex, len(sw.top))
	for r, x0 := range sw.top {
		starts[r] = NewSimplex(x0, lo, hi, NelderMeadOptions{MaxEvals: opts.RefineEval})
	}
	refine(workers, starts, refineQuantum, func(w int, _ []*Simplex, xs [][]float64, vals []float64) {
		evalChunked(fs[w], xs, vals, 0)
	})
	return best(sw, starts)
}

// GradObjective returns f(x) and writes ∇f(x) into grad, for exclusive use
// by one worker goroutine. Its value at x is, bit for bit, what the worker's
// BatchObjective returns there, so a candidate's sweep score and the first
// evaluation of the ascent started from it agree.
type GradObjective func(x, grad []float64) float64

// GradFactory builds one worker's two views of an objective: the batched
// value for the candidate sweep and the value with its gradient for the
// refinement. Like ObjectiveFactory it is called once per worker.
type GradFactory func() (BatchObjective, GradObjective)

// MaximizeGrad is MaximizeParallel for an objective with a gradient: the same
// sweep, ranking, scheduling and reduction, with each of the best candidates
// refined by an Ascent — ascentEvals value-and-gradient evaluations at most —
// where MaximizeParallel runs a RefineEval-evaluation Simplex. Same
// determinism: an Ascent sees only its own evaluations, so the result does
// not depend on the worker count or the schedule.
func MaximizeGrad(newF GradFactory, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	workers := opts.resolve(len(lo))
	gs := make([]GradObjective, workers)
	sw := sweep(lo, hi, rng, opts, workers, func(w int) (f BatchObjective) {
		f, gs[w] = newF()
		return f
	})
	starts := make([]*Ascent, len(sw.top))
	for r, x0 := range sw.top {
		starts[r] = NewAscent(x0, lo, hi)
	}
	refine(workers, starts, ascentQuantum, func(w int, ss []*Ascent, xs [][]float64, vals []float64) {
		for i, a := range ss {
			vals[i] = gs[w](xs[i], a.Grad())
		}
	})
	return best(sw, starts)
}

// resolve applies the defaults for dimension d and returns the worker count.
func (o *MaximizeOptions) resolve(d int) int {
	o.defaults(d)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, o.Candidates)
}

// swept is a finished candidate sweep: the best candidate with its value,
// and the starting points of the refinements, best first.
type swept struct {
	x   []float64
	v   float64
	top [][]float64
}

// sweep draws the Latin-hypercube candidates, scores them on workers
// goroutines — newF(w) builds worker w's objective on worker w's goroutine,
// and each worker floors its calls at its own range's Refine-th best
// (evalChunked) — and ranks them. opts has been resolved.
func sweep(lo, hi []float64, rng *rand.Rand, opts MaximizeOptions, workers int, newF func(w int) BatchObjective) swept {
	pts := stats.LatinHypercubeIn(rng, opts.Candidates, lo, hi)
	vals := make([]float64, len(pts))
	fanOut(workers, func(w int) {
		from, to := w*len(pts)/workers, (w+1)*len(pts)/workers
		evalChunked(newF(w), pts[from:to], vals[from:to], opts.Refine)
	})

	// The Refine best candidates, best first, an equal value ranking by
	// index: a few passes over the values (Refine is 2 or 3) where a full sort
	// of the sweep would rank candidates nobody looks at.
	sw := swept{top: make([][]float64, 0, min(opts.Refine, len(pts)))}
	taken := make([]int, 0, cap(sw.top))
	for len(taken) < cap(taken) {
		at := -1
		for i, v := range vals {
			// NaN ranks below everything; the strict > keeps the lower index.
			//easybolint:ok floateq x != x is the NaN test
			if better := at < 0 || v > vals[at] || (vals[at] != vals[at] && v == v); better && !slices.Contains(taken, i) {
				at = i
			}
		}
		taken = append(taken, at)
		sw.top = append(sw.top, pts[at])
	}
	sw.x, sw.v = sw.top[0], vals[taken[0]]
	return sw
}

// best reduces a sweep and the refinements started from it to the one best
// point, the earlier-ranked start winning a tie.
func best[S stepper](sw swept, starts []S) ([]float64, float64) {
	bestX, bestV := sw.x, sw.v
	for _, s := range starts {
		if x, v := s.top(); v > bestV {
			bestX, bestV = x, v
		}
	}
	return append([]float64(nil), bestX...), bestV
}

// stepper is a local search with control inverted — Simplex, Ascent: Next
// names the point whose value it waits for (nil once it has finished), Tell
// supplies it. top is a finished search's best point with its value; the
// slice is the search's own.
type stepper interface {
	Next() []float64
	Tell(v float64)
	top() ([]float64, float64)
}

// evaluator scores, on worker w, the pending point xs[i] of every search
// ss[i] into vals[i] — and whatever else the search wants to know about the
// point into the search itself (an Ascent's gradient).
type evaluator[S stepper] func(w int, ss []S, xs [][]float64, vals []float64)

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

// evalChunked scores xs into out, MaxBatch points per call of f. With
// keep = 0 every call asks for every value. The candidate sweep, which ranks
// its keep best, passes keep > 0 for each worker's contiguous range, and
// each call gets the keep-th best value the range has scored so far as its
// floor (−Inf until keep values are in): a candidate below it cannot be among
// the keep best of the sweep, since keep candidates of this range are at
// least the floor and have lower indices, which win ties. So whatever f
// scores it — its value or the −Inf f may put there instead — the ranking
// takes the same candidates. NaN and −Inf never raise the floor.
func evalChunked(f BatchObjective, xs [][]float64, out []float64, keep int) {
	var stack [8]float64 // no allocation at the Refine counts in use
	best := stack[:0]    // the keep best values so far, descending
	if keep > len(stack) {
		best = make([]float64, 0, keep)
	}
	for len(best) < keep {
		best = append(best, math.Inf(-1))
	}
	floor := math.Inf(-1)
	for len(xs) > 0 {
		c := min(len(xs), MaxBatch)
		if keep > 0 {
			floor = best[keep-1]
		}
		f(xs[:c], out[:c], floor)
		for _, v := range out[:c] {
			j := keep
			for j > 0 && v > best[j-1] {
				j--
			}
			if j < keep {
				copy(best[j+1:], best[j:keep-1])
				best[j] = v
			}
		}
		xs, out = xs[c:], out[c:]
	}
}

// refineQuantum is how many rounds a worker advances a simplex before it
// looks for another one waiting. Long enough that the hand-off (a channel
// send and receive, a simplex whose vertices another core last wrote) is
// small against the rounds between two of them even at a 1 µs prediction;
// short enough that two workers sharing three equal simplexes finish within
// a fraction of one simplex of each other (DESIGN.md §14.3).
//
// ascentQuantum is the same for an Ascent, whose whole life is ascentEvals
// rounds of a value and a gradient each (tens of microseconds on either
// backend, against a microsecond of hand-off): at the simplex's quantum it
// would never change hands, and two workers would take three ascents in the
// time of two; at four rounds they take them in the time of one and a half.
const (
	refineQuantum = 32
	ascentQuantum = 4
)

// refine runs every search to completion on min(workers, len(starts))
// workers, worker w evaluating through eval(w, …) alone. One worker steps
// them all together, one batch per round. Several workers share one queue:
// each takes a search, advances it quantum rounds at a time, and puts
// it back only when another is waiting — so no worker idles while a search is
// unclaimed, whatever the two counts are. A search belongs to whoever took
// it from the queue, and between quanta it has no point outstanding.
//
// A worker that finds the queue empty is done. Every live search is then in
// another worker's hands and stays there: a search goes back only when the
// queue already holds one, and whoever puts one back takes one out next. So
// nothing is ever left for a worker that has gone, and the queue needs no
// closing.
//
// The schedule may vary from run to run; the result cannot, because an
// objective scores a point the same in any batch on any worker, so each
// search sees the values it would see alone.
func refine[S stepper](workers int, starts []S, quantum int, eval evaluator[S]) {
	workers = min(workers, len(starts))
	if workers <= 1 {
		// On a copy: lockstep compacts its slice, the caller reads starts.
		all := append([]S(nil), starts...)
		lockstep(0, eval, all, make([][]float64, len(all)), make([]float64, len(all)), math.MaxInt)
		return
	}
	// Room for every search at once: putting one back never blocks.
	queue := make(chan S, len(starts))
	for _, s := range starts {
		queue <- s
	}
	fanOut(workers, func(w int) {
		// One search at a time, and one point and value for it, for the
		// worker's whole run.
		mine, xs, vals := make([]S, 1), make([][]float64, 1), make([]float64, 1)
		for {
			select {
			case mine[0] = <-queue:
			default:
				return
			}
			for lockstep(w, eval, mine, xs, vals, quantum) > 0 {
				if len(queue) > 0 {
					queue <- mine[0]
					break
				}
			}
		}
	})
}

// lockstep advances the searches together for at most rounds rounds: each
// round scores every running search's pending point in one call of eval and
// tells the values back. A search sees exactly the evaluations it would see
// alone. It returns how many are still running, compacted to the front of
// running. xs and vals are scratch, one entry per search, so that a caller
// advancing a quantum at a time allocates them once.
func lockstep[S stepper](w int, eval evaluator[S], running []S, xs [][]float64, vals []float64, rounds int) int {
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
		eval(w, running, xs[:n], vals[:n])
		for i, s := range running {
			s.Tell(vals[i])
		}
	}
}
