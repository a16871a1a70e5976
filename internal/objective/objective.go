// Package objective defines the optimization problems consumed by the BO
// drivers: a Problem carries box bounds, the black-box figure of merit to
// MAXIMIZE, and a simulation-cost model giving the virtual runtime of each
// evaluation (the HSPICE wall-clock stand-in; see DESIGN.md).
//
// The package also provides the classic synthetic benchmarks (Branin,
// Hartmann-6, Ackley, Rosenbrock, Sphere) used by tests and examples.
package objective

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a box-constrained maximization problem.
type Problem struct {
	Name string
	Lo   []float64
	Hi   []float64
	// Eval returns the figure of merit at x (maximize). It must be safe
	// for concurrent use.
	Eval func(x []float64) float64
	// NewEval optionally returns a fresh evaluator instance owning private
	// simulator state (compiled circuits, solver workspaces). Parallel
	// executors give each worker its own instance so evaluations skip all
	// per-call setup without synchronizing; the returned function need not
	// be safe for concurrent use. Nil means workers share Eval.
	NewEval func() func(x []float64) float64
	// Cost returns the simulated evaluation runtime in seconds. Nil means
	// unit cost.
	Cost func(x []float64) float64
	// BestKnown is the known optimum FOM when available (for regret
	// reporting); NaN when unknown.
	BestKnown float64
}

// Validate reports structural problems.
func (p *Problem) Validate() error {
	if p.Eval == nil {
		return errors.New("objective: nil Eval")
	}
	if len(p.Lo) == 0 || len(p.Lo) != len(p.Hi) {
		return fmt.Errorf("objective: bad bounds (%d vs %d)", len(p.Lo), len(p.Hi))
	}
	for i := range p.Lo {
		if !(p.Lo[i] < p.Hi[i]) {
			return fmt.Errorf("objective: empty box in dimension %d", i)
		}
	}
	return nil
}

// EvalWithCost returns the objective value and the simulated cost at x.
func (p *Problem) EvalWithCost(x []float64) (y, cost float64) {
	y = p.Eval(x)
	if p.Cost != nil {
		cost = p.Cost(x)
	} else {
		cost = 1
	}
	return y, cost
}

// uniformBounds builds d-dimensional [lo, hi] boxes.
func uniformBounds(d int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, d)
	h := make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

// Branin returns the (negated) Branin-Hoo function on [-5,10]×[0,15];
// max value 0 at three global optima (classic BO smoke test).
func Branin() *Problem {
	const (
		a = 1.0
		b = 5.1 / (4 * math.Pi * math.Pi)
		c = 5 / math.Pi
		r = 6.0
		s = 10.0
		t = 1 / (8 * math.Pi)
	)
	return &Problem{
		Name: "branin",
		Lo:   []float64{-5, 0},
		Hi:   []float64{10, 15},
		Eval: func(x []float64) float64 {
			v := a*math.Pow(x[1]-b*x[0]*x[0]+c*x[0]-r, 2) + s*(1-t)*math.Cos(x[0]) + s
			return -(v - 0.397887) // shift so the max is 0
		},
		BestKnown: 0,
	}
}

// Hartmann6 returns the negated 6-D Hartmann function on [0,1]^6;
// max value ≈ 3.32237.
func Hartmann6() *Problem {
	alpha := [4]float64{1.0, 1.2, 3.0, 3.2}
	A := [4][6]float64{
		{10, 3, 17, 3.5, 1.7, 8},
		{0.05, 10, 17, 0.1, 8, 14},
		{3, 3.5, 1.7, 10, 17, 8},
		{17, 8, 0.05, 10, 0.1, 14},
	}
	P := [4][6]float64{
		{0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886},
		{0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991},
		{0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650},
		{0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381},
	}
	lo, hi := uniformBounds(6, 0, 1)
	return &Problem{
		Name: "hartmann6",
		Lo:   lo, Hi: hi,
		Eval: func(x []float64) float64 {
			var sum float64
			for i := 0; i < 4; i++ {
				var inner float64
				for j := 0; j < 6; j++ {
					d := x[j] - P[i][j]
					inner += A[i][j] * d * d
				}
				sum += alpha[i] * math.Exp(-inner)
			}
			return sum
		},
		BestKnown: 3.32237,
	}
}

// Ackley returns the negated Ackley function on [-5,5]^d; max value 0 at 0.
func Ackley(d int) *Problem {
	lo, hi := uniformBounds(d, -5, 5)
	return &Problem{
		Name: fmt.Sprintf("ackley%d", d),
		Lo:   lo, Hi: hi,
		Eval: func(x []float64) float64 {
			var s1, s2 float64
			for _, v := range x {
				s1 += v * v
				s2 += math.Cos(2 * math.Pi * v)
			}
			n := float64(len(x))
			v := -20*math.Exp(-0.2*math.Sqrt(s1/n)) - math.Exp(s2/n) + 20 + math.E
			return -v
		},
		BestKnown: 0,
	}
}

// Rosenbrock returns the negated Rosenbrock function on [-2,2]^d;
// max value 0 at (1,…,1).
func Rosenbrock(d int) *Problem {
	lo, hi := uniformBounds(d, -2, 2)
	return &Problem{
		Name: fmt.Sprintf("rosenbrock%d", d),
		Lo:   lo, Hi: hi,
		Eval: func(x []float64) float64 {
			var s float64
			for i := 0; i+1 < len(x); i++ {
				a := 1 - x[i]
				b := x[i+1] - x[i]*x[i]
				s += a*a + 100*b*b
			}
			return -s
		},
		BestKnown: 0,
	}
}

// Sphere returns the negated sphere function on [-5,5]^d; max value 0 at 0.
func Sphere(d int) *Problem {
	lo, hi := uniformBounds(d, -5, 5)
	return &Problem{
		Name: fmt.Sprintf("sphere%d", d),
		Lo:   lo, Hi: hi,
		Eval: func(x []float64) float64 {
			var s float64
			for _, v := range x {
				s += v * v
			}
			return -s
		},
		BestKnown: 0,
	}
}

// WithCost returns a copy of p using the given cost model.
func WithCost(p *Problem, cost func(x []float64) float64) *Problem {
	q := *p
	q.Cost = cost
	return &q
}
