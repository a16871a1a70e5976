// Package optimize provides the optimizers used by the BO stack: a
// multi-start acquisition maximizer (space-filling candidates, then local
// refinement of the best of them), its two local searches — a box-constrained
// quasi-Newton ascent for objectives that have a gradient to give (Ascent;
// every posterior acquisition does) and a box-constrained Nelder–Mead simplex
// for those that do not (Simplex: a constrained score) — and the
// differential-evolution global optimizer that serves as the paper's DE
// baseline [13].
//
// Both local searches are ask/tell state machines: Next names the point
// whose value the search is waiting for, Tell supplies it. Control is
// inverted so that whoever owns the objective decides how to evaluate — the
// NelderMead function drives one Simplex with a scalar Objective; the
// maximizer on one worker advances several searches in lockstep, scoring all
// their pending points in one call per step, and on several workers hands
// whole searches between them so that none idles. A posterior prediction is a
// triangular solve, a chain of dependent subtractions that runs at add
// latency unless independent chains are interleaved with it — other points'
// (a batch) or the same point's other rows (linalg.SolveLowerInto) — and
// either way each point's value is bit-identical to its value alone, which
// is what lets the maximizer regroup and reschedule freely. There is one
// sweep, one scheduler and one reduction: MaximizeGrad and MaximizeParallel
// differ in which search refines, and the scalar entry points (NelderMead,
// Maximize) are the width-1 use of the same code.
package optimize

import (
	"math"
	"math/rand"
	"sort"
)

// Objective is a function to MAXIMIZE over a box.
type Objective func(x []float64) float64

// MaxBatch is the most points the maximizer hands a BatchObjective in one
// call, so an objective can size its scratch once.
const MaxBatch = 16

// BatchObjective scores xs[i] into out[i] for every i; len(xs) == len(out)
// and is at most MaxBatch. Each out[i] must depend on xs[i] and floor alone
// and equal, bit for bit, what a call with that single point and floor
// returns: the maximizer regroups points freely (by worker count, by which
// searches are still running) and promises the same result for every
// grouping. It must not retain xs.
//
// floor says which values the caller has no use for: an objective that can
// show, before paying for it, that a point's value is strictly below floor
// may score it −Inf; every other point it scores exactly. −Inf asks for every
// value, and an objective is free to ignore floor (Each does). Only the
// candidate sweep passes a finite floor, below which a candidate cannot be
// among those it refines.
type BatchObjective func(xs [][]float64, out []float64, floor float64)

// Each adapts a scalar objective to the batch signature, one call per point;
// it scores every point, whatever the floor.
func Each(f Objective) BatchObjective {
	return func(xs [][]float64, out []float64, _ float64) {
		for i, x := range xs {
			out[i] = f(x)
		}
	}
}

// clampTo projects x into [lo, hi] in place.
func clampTo(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// NelderMeadOptions tunes the simplex search.
type NelderMeadOptions struct {
	MaxEvals int     // evaluation budget (default 80·d)
	InitStep float64 // initial simplex size as a fraction of the box (default 0.1)
	Tol      float64 // spread tolerance for early stop (default 1e-9)
}

// nmPhase says which evaluation a Simplex is waiting for.
type nmPhase uint8

const (
	nmInit     nmPhase = iota // vertex i of the initial simplex
	nmReflect                 // reflection of the worst vertex
	nmExpand                  // expansion past a reflection that beat the best
	nmContract                // contraction after a reflection that beat nothing
	nmShrink                  // vertex i, moved halfway to the best
	nmDone
)

// Simplex is the box-constrained Nelder–Mead search (reflect, expand,
// contract, shrink, with projection onto the box) as an ask/tell stepper:
//
//	for x := s.Next(); x != nil; x = s.Next() {
//		s.Tell(f(x))
//	}
//	x, v := s.Best()
//
// It evaluates nothing itself, so several can advance together on one
// batched evaluation. All its buffers are allocated once by NewSimplex.
type Simplex struct {
	lo, hi   []float64
	maxEvals int
	tol      float64

	x        [][]float64 // d+1 vertices, best first once the initial simplex is scored
	v        []float64   // their values
	centroid []float64   // of all vertices but the worst
	trial    [2][]float64
	reflV    float64 // value of trial[0] while the expansion is out

	phase nmPhase
	i     int // vertex being scored (nmInit, nmShrink)
	evals int
}

// NewSimplex starts a search that maximizes over the box [lo, hi] from x0.
// lo and hi are retained, x0 is not.
func NewSimplex(x0, lo, hi []float64, opts NelderMeadOptions) *Simplex {
	d := len(x0)
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 80 * d
	}
	if opts.InitStep <= 0 {
		opts.InitStep = 0.1
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-9
	}
	s := &Simplex{lo: lo, hi: hi, maxEvals: opts.MaxEvals, tol: opts.Tol}
	// One backing array: d+1 vertices, the centroid, two trial points.
	buf := make([]float64, (d+4)*d)
	next := func() []float64 {
		p := buf[:d:d]
		buf = buf[d:]
		return p
	}
	s.x = make([][]float64, d+1)
	s.v = make([]float64, d+1)
	for i := range s.x {
		s.x[i] = next()
	}
	s.centroid, s.trial[0], s.trial[1] = next(), next(), next()

	// Initial simplex: x0 plus a step along each axis.
	copy(s.x[0], x0)
	clampTo(s.x[0], lo, hi)
	for i := 0; i < d; i++ {
		x := s.x[i+1]
		copy(x, s.x[0])
		step := opts.InitStep * (hi[i] - lo[i])
		if x[i]+step > hi[i] {
			step = -step
		}
		x[i] += step
		clampTo(x, lo, hi)
	}
	return s
}

// Next returns the point whose value the search is waiting for, or nil once
// it has finished. The slice belongs to the Simplex and is valid until the
// matching Tell.
func (s *Simplex) Next() []float64 {
	switch s.phase {
	case nmInit, nmShrink:
		return s.x[s.i]
	case nmReflect:
		return s.trial[0]
	case nmExpand, nmContract:
		return s.trial[1]
	}
	return nil
}

// Tell supplies the objective value at the point Next returned and advances
// the search.
func (s *Simplex) Tell(v float64) {
	d := len(s.x) - 1
	s.evals++
	switch s.phase {
	case nmInit:
		s.v[s.i] = v
		if s.i < d {
			s.i++
			return
		}
		s.iterate()
	case nmReflect:
		switch {
		case v > s.v[0]:
			s.reflV = v
			s.move(s.trial[1], 2.0)
			s.phase = nmExpand
		case v > s.v[d-1]:
			s.replaceWorst(0, v)
			s.iterate()
		default:
			s.move(s.trial[1], -0.5)
			s.phase = nmContract
		}
	case nmExpand:
		if v > s.reflV {
			s.replaceWorst(1, v)
		} else {
			s.replaceWorst(0, s.reflV)
		}
		s.iterate()
	case nmContract:
		if v > s.v[d] {
			s.replaceWorst(1, v)
			s.iterate()
			return
		}
		// Shrink toward the best vertex, one vertex per evaluation.
		s.phase = nmShrink
		s.shrink(1)
	case nmShrink:
		s.v[s.i] = v
		if s.i == d || s.evals >= s.maxEvals {
			s.iterate()
			return
		}
		s.shrink(s.i + 1)
	default:
		panic("optimize: Simplex.Tell after the search finished")
	}
}

// Best returns a copy of the best vertex and its value. It is the search's
// answer once Next returns nil.
func (s *Simplex) Best() ([]float64, float64) {
	return append([]float64(nil), s.x[0]...), s.v[0]
}

// top implements stepper.
func (s *Simplex) top() ([]float64, float64) { return s.x[0], s.v[0] }

// iterate opens the next simplex iteration: rank the vertices, stop on the
// budget or the value spread, otherwise send out the reflection.
func (s *Simplex) iterate() {
	d := len(s.x) - 1
	sort.Sort(byValueDesc{s})
	if s.evals >= s.maxEvals ||
		math.Abs(s.v[0]-s.v[d]) < s.tol*(1+math.Abs(s.v[0])) {
		s.phase = nmDone
		return
	}
	for j := range s.centroid {
		s.centroid[j] = 0
	}
	for i := 0; i < d; i++ {
		for j := range s.centroid {
			s.centroid[j] += s.x[i][j]
		}
	}
	for j := range s.centroid {
		s.centroid[j] /= float64(d)
	}
	s.move(s.trial[0], 1.0)
	s.phase = nmReflect
}

// move writes centroid + coef·(centroid − worst), projected onto the box.
func (s *Simplex) move(dst []float64, coef float64) {
	worst := s.x[len(s.x)-1]
	for j := range dst {
		dst[j] = s.centroid[j] + coef*(s.centroid[j]-worst[j])
	}
	clampTo(dst, s.lo, s.hi)
}

// replaceWorst swaps trial point t in for the worst vertex; the vertex's old
// storage becomes the trial buffer.
func (s *Simplex) replaceWorst(t int, v float64) {
	d := len(s.x) - 1
	s.x[d], s.trial[t] = s.trial[t], s.x[d]
	s.v[d] = v
}

// shrink moves vertex i halfway to the best vertex and asks for its value.
func (s *Simplex) shrink(i int) {
	best, x := s.x[0], s.x[i]
	for j := range x {
		x[j] = best[j] + 0.5*(x[j]-best[j])
	}
	s.i = i
}

// byValueDesc ranks a simplex's vertices best first. sort.Sort on it makes
// the comparisons and swaps sort.Slice would (the two are generated from
// one template), without sort.Slice's per-call allocations.
type byValueDesc struct{ s *Simplex }

func (b byValueDesc) Len() int           { return len(b.s.v) }
func (b byValueDesc) Less(i, j int) bool { return b.s.v[i] > b.s.v[j] }
func (b byValueDesc) Swap(i, j int) {
	b.s.x[i], b.s.x[j] = b.s.x[j], b.s.x[i]
	b.s.v[i], b.s.v[j] = b.s.v[j], b.s.v[i]
}

// NelderMead maximizes f over the box [lo, hi] starting from x0, driving one
// Simplex to completion. It returns the best point and value found.
func NelderMead(f Objective, x0, lo, hi []float64, opts NelderMeadOptions) ([]float64, float64) {
	s := NewSimplex(x0, lo, hi, opts)
	for x := s.Next(); x != nil; x = s.Next() {
		s.Tell(f(x))
	}
	return s.Best()
}

// MaximizeOptions tunes the global acquisition maximizer.
type MaximizeOptions struct {
	Candidates int // space-filling candidates (default 20·d, min 100)
	Refine     int // top candidates refined by a local search (default 3)
	RefineEval int // evaluation budget of one Simplex (default 40·d); an Ascent's is the constant ascentEvals
	// Workers is the number of goroutines evaluating candidates and running
	// refinements concurrently (default GOMAXPROCS). The result is
	// identical for every worker count: all randomness is drawn before the
	// fan-out, the reduction is order-independent, and a search sees the
	// same values whichever worker advances it. With 1 the caller's
	// goroutine does everything, the refinements together in lockstep.
	Workers int
}

func (o *MaximizeOptions) defaults(d int) {
	if o.Candidates <= 0 {
		o.Candidates = max(20*d, 100)
	}
	if o.Refine <= 0 {
		o.Refine = 3
	}
	if o.RefineEval <= 0 {
		o.RefineEval = 40 * d
	}
}

// Maximize performs multi-start global maximization of f over [lo, hi]:
// a Latin-hypercube candidate sweep followed by simplex refinement of the
// best candidates. Deterministic given rng. It runs serially — f may be
// stateful — and returns exactly what MaximizeParallel would for any worker
// count; use MaximizeParallel with an ObjectiveFactory to opt into the
// concurrent, batched fan-out.
func Maximize(f Objective, lo, hi []float64, rng *rand.Rand, opts MaximizeOptions) ([]float64, float64) {
	opts.Workers = 1
	return MaximizeParallel(func() BatchObjective { return Each(f) }, lo, hi, rng, opts)
}
