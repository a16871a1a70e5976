package optimize

import (
	"math"

	"easybo/internal/linalg"
)

// The Ascent's tuning. None of it is an option: the acquisition it refines is
// always a posterior over the unit cube in standardized output units, so one
// setting fits every caller, and every value sits inside the replay-
// determinism boundary — changing one changes which point a recorded ask
// proposed (core.ProposerGeneration).
const (
	// ascentEvals is the most value-and-gradient evaluations one Ascent
	// makes, its first point included. A constant, not 40·d like the simplex
	// budget: a quasi-Newton step needs no more evaluations in ten dimensions
	// than in two, only the curvature history does, and that is ascentPairs.
	ascentEvals = 30
	// ascentPairs is the L-BFGS history length.
	ascentPairs = 6
	// ascentArmijo is the sufficient-increase constant of the line search.
	ascentArmijo = 1e-4
	// ascentFirstStep is how far, in box widths along its steepest
	// coordinate, the first trial of a search goes — the simplex's InitStep.
	// Later trials take the quasi-Newton step, cut to ascentMaxStep.
	ascentFirstStep = 0.1
	ascentMaxStep   = 0.5
	// ascentTol stops a search whose projected gradient, or whose next
	// trial's displacement, is below it in every unit-cube coordinate.
	ascentTol = 1e-9
)

// ascentPhase says what an Ascent is waiting for.
type ascentPhase uint8

const (
	ascentStart ascentPhase = iota // the value and gradient at its first point
	ascentTrial                    // those at a line-search trial
	ascentDone
)

// Ascent is a box-constrained quasi-Newton ascent — projected L-BFGS with
// Armijo backtracking along the projected path — as an ask/tell stepper, the
// gradient counterpart of Simplex:
//
//	for x := a.Next(); x != nil; x = a.Next() {
//		a.Tell(f(x, a.Grad())) // f writes ∇f(x) into a.Grad()
//	}
//	x, v := a.Best()
//
// It works in unit-cube coordinates u = (x − lo)/(hi − lo), so one curvature
// scale and one step length fit axes whose raw spans differ by fifteen orders
// of magnitude (a compensation capacitor in farads beside a resistor in
// ohms); Next and Grad speak raw coordinates. Every accepted point has a
// strictly higher value than the one before, no point leaves the box, and a
// search ends within ascentEvals evaluations. All buffers are allocated once
// by NewAscent.
type Ascent struct {
	lo, hi []float64

	u, g []float64 // accepted point (unit cube) and its gradient there
	f    float64   // its value

	ut, x, gx []float64 // trial point (unit cube), its raw image, the raw gradient being written
	dir       []float64 // search direction
	step      float64   // trial = P(u + step·dir)
	slope     float64   // g·(ut − u), the increase a linear model predicts
	newton    bool      // dir came from the curvature pairs (else it is the projected gradient)

	// Curvature pairs in a ring: s = Δu, y = −Δg (the pair of the
	// minimization of −f), rho = 1/(s·y).
	s, y  [ascentPairs][]float64
	rho   [ascentPairs]float64
	alpha [ascentPairs]float64
	pairs int // stored
	head  int // slot the next pair goes to

	phase ascentPhase
	evals int
}

// NewAscent starts a search that maximizes over the box [lo, hi] from x0.
// lo and hi are retained, x0 is not.
func NewAscent(x0, lo, hi []float64) *Ascent {
	d := len(x0)
	a := &Ascent{lo: lo, hi: hi}
	// One backing array for every vector.
	buf := make([]float64, (6+2*ascentPairs)*d)
	next := func() []float64 {
		p := buf[:d:d]
		buf = buf[d:]
		return p
	}
	a.u, a.g, a.ut, a.x, a.gx, a.dir = next(), next(), next(), next(), next(), next()
	for i := range a.s {
		a.s[i], a.y[i] = next(), next()
	}
	for j := range lo {
		if span := hi[j] - lo[j]; span > 0 {
			a.ut[j] = math.Min(math.Max((x0[j]-lo[j])/span, 0), 1)
		}
	}
	a.toRaw(a.x, a.ut)
	return a
}

// toRaw writes the raw image of the unit-cube point u into x. The faces map
// to lo and hi themselves: lo + 1·(hi − lo) need not round to hi.
func (a *Ascent) toRaw(x, u []float64) {
	for j, uj := range u {
		switch {
		case uj <= 0:
			x[j] = a.lo[j]
		case uj >= 1:
			x[j] = a.hi[j]
		default:
			x[j] = math.Min(math.Max(a.lo[j]+uj*(a.hi[j]-a.lo[j]), a.lo[j]), a.hi[j])
		}
	}
}

// finish ends the search. The trial buffer is free from here on and takes
// the raw image of the accepted point, the answer (top).
func (a *Ascent) finish() {
	a.phase = ascentDone
	a.toRaw(a.x, a.u)
}

// Next returns the point whose value and gradient the search is waiting for,
// or nil once it has finished. The slice belongs to the Ascent and is valid
// until the matching Tell.
func (a *Ascent) Next() []float64 {
	if a.phase == ascentDone {
		return nil
	}
	return a.x
}

// Grad returns the buffer the gradient at Next, in raw coordinates, must be
// written to before Tell.
func (a *Ascent) Grad() []float64 { return a.gx }

// Best returns a copy of the best point and its value. It is the search's
// answer once Next returns nil.
func (a *Ascent) Best() ([]float64, float64) {
	x := make([]float64, len(a.u))
	a.toRaw(x, a.u)
	return x, a.f
}

// top implements stepper; it is read once the search has finished.
func (a *Ascent) top() ([]float64, float64) { return a.x, a.f }

// Tell supplies the objective value at the point Next returned — its gradient
// already in Grad — and advances the search.
func (a *Ascent) Tell(v float64) {
	a.evals++
	switch a.phase {
	case ascentStart:
		a.f = v
		a.accept()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing to climb from (a vetoed point of a penalized
			// acquisition): the start is the answer.
			a.finish()
			return
		}
	case ascentTrial:
		// A NaN fails the comparison and is backed away from like any other
		// trial that does not improve enough.
		if !(v >= a.f+ascentArmijo*a.slope) {
			a.backtrack(v)
			return
		}
		a.f = v
		a.accept()
	default:
		panic("optimize: Ascent.Tell after the search finished")
	}
	a.search()
}

// accept makes the trial point the current one: u ← ut, g ← the gradient just
// written (turned into unit-cube coordinates), remembering the curvature the
// move revealed.
func (a *Ascent) accept() {
	first := a.phase == ascentStart
	s, y := a.s[a.head], a.y[a.head]
	var sy, yy float64
	for j := range a.u {
		gj := a.gx[j] * (a.hi[j] - a.lo[j])
		s[j], y[j] = a.ut[j]-a.u[j], a.g[j]-gj
		sy += s[j] * y[j]
		yy += y[j] * y[j]
		a.u[j], a.g[j] = a.ut[j], gj
	}
	// The pair enters the history only if it shows positive curvature of −f,
	// which keeps the quasi-Newton matrix positive definite.
	if !first && sy > 1e-12*yy && yy > 0 {
		a.rho[a.head] = 1 / sy
		a.head = (a.head + 1) % ascentPairs
		a.pairs = min(a.pairs+1, ascentPairs)
	}
}

// pinned reports whether coordinate j sits on a face of the box with the
// gradient pointing out of it (or has no extent at all): it does not move.
func (a *Ascent) pinned(j int) bool {
	return a.hi[j] <= a.lo[j] || (a.u[j] <= 0 && a.g[j] < 0) || (a.u[j] >= 1 && a.g[j] > 0)
}

// search opens a line search from the current point: choose the direction
// and send out the first trial along it, or finish.
func (a *Ascent) search() {
	if a.evals >= ascentEvals {
		a.finish()
		return
	}
	// NaN-safe: a gradient that is not a number ends the search here.
	if gmax := a.steepest(); !(gmax >= ascentTol) || math.IsInf(gmax, 0) {
		a.finish()
		return
	}
	if a.pairs > 0 {
		a.twoLoop()
		var dmax, dg float64
		for j, dj := range a.dir {
			dmax = math.Max(dmax, math.Abs(dj))
			dg += dj * a.g[j]
		}
		if dg > 0 && !math.IsInf(dmax, 0) {
			a.newton, a.step = true, math.Min(1, ascentMaxStep/dmax)
		} else {
			// The pairs produced no ascent direction: drop them.
			a.pairs = 0
			a.steepest()
		}
	}
	a.trial()
}

// steepest makes the projected gradient the direction, ascentFirstStep box
// widths long in its largest coordinate, and returns that coordinate's size.
func (a *Ascent) steepest() (gmax float64) {
	for j, gj := range a.g {
		a.dir[j] = gj
		if a.pinned(j) {
			a.dir[j] = 0
		}
		gmax = math.Max(gmax, math.Abs(a.dir[j]))
	}
	a.newton, a.step = false, ascentFirstStep/gmax
	return gmax
}

// twoLoop turns dir, holding the projected gradient, into H·dir by the
// L-BFGS two-loop recursion over the stored pairs, and zeroes the pinned
// coordinates of the result again.
func (a *Ascent) twoLoop() {
	q := a.dir
	for k := 0; k < a.pairs; k++ { // newest first
		i := (a.head - 1 - k + 2*ascentPairs) % ascentPairs
		a.alpha[i] = a.rho[i] * linalg.Dot(a.s[i], q)
		linalg.Axpy(-a.alpha[i], a.y[i], q)
	}
	newest := (a.head - 1 + ascentPairs) % ascentPairs
	scale := 1 / (a.rho[newest] * linalg.Dot(a.y[newest], a.y[newest]))
	for j := range q {
		q[j] *= scale
	}
	for k := a.pairs - 1; k >= 0; k-- { // oldest first
		i := (a.head - 1 - k + 2*ascentPairs) % ascentPairs
		beta := a.rho[i] * linalg.Dot(a.y[i], q)
		linalg.Axpy(a.alpha[i]-beta, a.s[i], q)
	}
	for j := range q {
		if a.pinned(j) {
			q[j] = 0
		}
	}
}

// trial sends out P(u + step·dir), or finishes when that is the current
// point to within ascentTol.
func (a *Ascent) trial() {
	for {
		var move float64
		a.slope = 0
		for j := range a.u {
			a.ut[j] = math.Min(math.Max(a.u[j]+a.step*a.dir[j], 0), 1)
			move = math.Max(move, math.Abs(a.ut[j]-a.u[j]))
			a.slope += a.g[j] * (a.ut[j] - a.u[j])
		}
		switch {
		case !(move >= ascentTol):
			a.finish()
			return
		case a.slope > 0:
			a.toRaw(a.x, a.ut)
			a.phase = ascentTrial
			return
		case !a.newton:
			// The projected gradient's own path cannot point downhill.
			a.finish()
			return
		}
		// Clipping turned the quasi-Newton path downhill: take the projected
		// gradient's, and stop trusting the pairs.
		a.pairs = 0
		a.steepest()
	}
}

// backtrack shortens the step after a trial that did not improve enough —
// to the maximizer of the parabola through f, the slope and the trial value
// v, kept between a tenth and a half of the step — and sends out the next.
func (a *Ascent) backtrack(v float64) {
	if a.evals >= ascentEvals {
		a.finish()
		return
	}
	shrink := 0.5
	if curv := a.f + a.slope - v; curv > 0 { // NaN and ±Inf fall through to 0.5 or the clamp
		shrink = math.Min(math.Max(0.5*a.slope/curv, 0.1), 0.5)
	}
	a.step *= shrink
	a.trial()
}
