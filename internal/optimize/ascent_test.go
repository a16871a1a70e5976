package optimize

import (
	"math"
	"math/rand"
	"testing"
)

// ascentCase is one seeded objective: a separable concave quadratic — with a
// ripple on top in half the cases and a curved valley across the first two
// axes in every sixth — over a box whose spans range over twelve orders of
// magnitude, with the quadratic's peak outside the box along some axes so
// that the maximum sits on a face.
type ascentCase struct {
	lo, hi, x0 []float64
	peak       []float64 // unit-cube coordinates; outside [0, 1] on the `out` axes
	out        []bool
	f          GradObjective
}

func newAscentCase(seed int64) ascentCase {
	r := rand.New(rand.NewSource(seed))
	d := 1 + r.Intn(8)
	c := ascentCase{lo: make([]float64, d), hi: make([]float64, d), x0: make([]float64, d),
		peak: make([]float64, d), out: make([]bool, d)}
	scale := make([]float64, d) // per-axis curvature
	for j := 0; j < d; j++ {
		span := math.Pow(10, -6+12*r.Float64())
		c.lo[j] = (r.Float64() - 0.5) * 10 * span
		c.hi[j] = c.lo[j] + span
		c.x0[j] = c.lo[j] + r.Float64()*span
		c.peak[j] = 0.1 + 0.8*r.Float64()
		if r.Intn(3) == 0 {
			c.out[j] = true
			c.peak[j] = 1.2 + r.Float64()
			if r.Intn(2) == 0 {
				c.peak[j] = -0.2 - r.Float64()
			}
		}
		scale[j] = 0.5 + 4*r.Float64()
	}
	ripple, valley := 0.0, 0.0
	if seed%2 == 0 {
		ripple = 0.02
	}
	if seed%6 == 0 && d >= 2 {
		valley = 100 // a Rosenbrock valley: thirty evaluations do not reach its floor's end
	}
	c.f = func(x, grad []float64) float64 {
		var v float64
		e := make([]float64, len(x))
		for j := range x {
			span := c.hi[j] - c.lo[j]
			e[j] = (x[j]-c.lo[j])/span - c.peak[j]
			v -= scale[j] * e[j] * e[j]
			grad[j] = -2 * scale[j] * e[j] / span
			if ripple > 0 {
				v += ripple * math.Sin(9*e[j])
				grad[j] += ripple * 9 * math.Cos(9*e[j]) / span
			}
		}
		if valley > 0 {
			b := e[1] - e[0]*e[0]
			v -= valley * b * b
			grad[0] += 4 * valley * b * e[0] / (c.hi[0] - c.lo[0])
			grad[1] -= 2 * valley * b / (c.hi[1] - c.lo[1])
		}
		return v
	}
	return c
}

// TestAscentProperties drives 300 seeded searches and checks, at every step
// of each, what the Ascent promises: no point leaves the box, the accepted
// value never decreases, the search ends within its budget — and, on the
// cases without ripple, that it ends on the constrained maximum: the axes
// whose peak lies outside the box pinned exactly on the face nearest it, the
// others at the peak.
func TestAscentProperties(t *testing.T) {
	spent := 0 // searches that ended on the budget
	for seed := int64(0); seed < 300; seed++ {
		c := newAscentCase(seed)
		a := NewAscent(c.x0, c.lo, c.hi)
		evals, last := 0, math.Inf(-1)
		for x := a.Next(); x != nil; x = a.Next() {
			evals++
			if evals > ascentEvals {
				t.Fatalf("seed %d: evaluation %d of a budget of %d", seed, evals, ascentEvals)
			}
			for j := range x {
				if !(x[j] >= c.lo[j] && x[j] <= c.hi[j]) {
					t.Fatalf("seed %d: evaluation %d leaves the box on axis %d: %v not in [%v, %v]", seed, evals, j, x[j], c.lo[j], c.hi[j])
				}
			}
			a.Tell(c.f(x, a.Grad()))
			if _, v := a.Best(); v < last {
				t.Fatalf("seed %d: accepted value fell from %v to %v at evaluation %d", seed, last, v, evals)
			} else {
				last = v
			}
		}
		if evals == ascentEvals {
			spent++
		}
		x, v := a.Best()
		if got := c.f(x, make([]float64, len(x))); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("seed %d: Best reports %v at a point whose value is %v", seed, v, got)
		}
		if seed%2 == 0 {
			continue // rippled: local maxima
		}
		for j := range x {
			u := (x[j] - c.lo[j]) / (c.hi[j] - c.lo[j])
			switch {
			case c.out[j] && c.peak[j] > 1 && x[j] != c.hi[j], c.out[j] && c.peak[j] < 0 && x[j] != c.lo[j]:
				t.Errorf("seed %d: axis %d has its peak at %.2f, outside the box, but ends at %.6f, not on the face", seed, j, c.peak[j], u)
			case !c.out[j] && math.Abs(u-c.peak[j]) > 1e-4:
				t.Errorf("seed %d: axis %d ends at %.6f, its peak is at %.6f (after %d evaluations)", seed, j, u, c.peak[j], evals)
			}
		}
	}
	if spent < 10 {
		t.Errorf("only %d of 300 searches used their whole budget: the budget stop went all but untested", spent)
	}
}

// TestAscentSurvivesNonFiniteValues: a trial whose value is NaN or −Inf is
// backed away from, a start that is itself vetoed is the answer, and a
// gradient that is not a number ends the search — none of them panics, loops
// or leaves the box.
func TestAscentSurvivesNonFiniteValues(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	run := func(f GradObjective, x0 []float64) ([]float64, float64, int) {
		a := NewAscent(x0, lo, hi)
		n := 0
		for x := a.Next(); x != nil; x = a.Next() {
			n++
			a.Tell(f(x, a.Grad()))
		}
		x, v := a.Best()
		return x, v, n
	}
	bowl := func(x, grad []float64) float64 {
		grad[0], grad[1] = -2*(x[0]-0.7), -2*(x[1]-0.6)
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.6)*(x[1]-0.6)
	}
	// A forbidden disc between the start and the peak.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		x, v, n := run(func(x, grad []float64) float64 {
			if v := bowl(x, grad); (x[0]-0.45)*(x[0]-0.45)+(x[1]-0.4)*(x[1]-0.4) > 0.01 {
				return v
			}
			return bad
		}, []float64{0.2, 0.2})
		if math.IsNaN(v) || math.IsInf(v, 0) || n > ascentEvals || v < bowl([]float64{0.2, 0.2}, make([]float64, 2)) {
			t.Fatalf("forbidden value %v: ended at %v = %v after %d evaluations", bad, x, v, n)
		}
	}
	if x, v, n := run(func(_, grad []float64) float64 { grad[0], grad[1] = 1, 1; return math.Inf(-1) }, []float64{0.3, 0.3}); n != 1 || !math.IsInf(v, -1) || x[0] != 0.3 {
		t.Fatalf("vetoed start: %v = %v after %d evaluations", x, v, n)
	}
	if _, v, n := run(func(x, grad []float64) float64 { grad[0], grad[1] = math.NaN(), 1; return x[0] }, []float64{0.3, 0.3}); n != 1 || v != 0.3 {
		t.Fatalf("NaN gradient: value %v after %d evaluations", v, n)
	}
}
