package easybo_test

import (
	"math"
	"testing"

	"easybo"
)

// linearUnderDisk: maximize x+y subject to x²+y² ≤ 1.
// Optimum: (√½, √½) with value √2.
func linearUnderDisk() (easybo.Problem, []easybo.Constraint) {
	p := easybo.Problem{
		Name: "disk",
		Lo:   []float64{-2, -2},
		Hi:   []float64{2, 2},
		Objective: func(x []float64) float64 {
			return x[0] + x[1]
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 1 },
	}
	return p, cons
}

func TestOptimizeConstrainedDisk(t *testing.T) {
	p, cons := linearUnderDisk()
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 4, MaxEvals: 70, InitPoints: 15, Seed: 3, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible design found on an easy problem")
	}
	// The unconstrained max is 4 at (2,2); feasible max is √2 ≈ 1.414.
	if res.BestY > math.Sqrt2+1e-6 {
		t.Fatalf("best %v violates the disk bound", res.BestY)
	}
	if res.BestY < 1.0 {
		t.Fatalf("best %v too far below the constrained optimum √2", res.BestY)
	}
	// The reported best must actually be feasible.
	if c := cons[0](res.BestX); c > 1e-9 {
		t.Fatalf("reported best is infeasible: c=%v at %v", c, res.BestX)
	}
	if len(res.Evaluations) != 70 {
		t.Fatalf("evaluations = %d", len(res.Evaluations))
	}
	for _, e := range res.Evaluations {
		if len(e.Constraints) != 1 {
			t.Fatal("constraint values missing")
		}
		if e.Feasible != (e.Constraints[0] <= 0) {
			t.Fatal("feasibility flag inconsistent")
		}
	}
}

func TestOptimizeConstrainedTightFeasibleSet(t *testing.T) {
	// Feasible set is a small ball around (1.5, -0.5); the optimizer must
	// first hunt for feasibility (probability-of-feasibility phase).
	p := easybo.Problem{
		Name: "tight",
		Lo:   []float64{-2, -2},
		Hi:   []float64{2, 2},
		Objective: func(x []float64) float64 {
			return -(x[0] * x[0]) - (x[1] * x[1]) // prefers the origin, which is infeasible
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 {
			dx, dy := x[0]-1.5, x[1]+0.5
			return dx*dx + dy*dy - 0.16 // radius 0.4 ball
		},
	}
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 3, MaxEvals: 90, InitPoints: 20, Seed: 9, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("failed to find the small feasible ball")
	}
	if c := cons[0](res.BestX); c > 1e-9 {
		t.Fatalf("best is infeasible: %v", c)
	}
}

func TestOptimizeConstrainedMultipleConstraints(t *testing.T) {
	// Two half-plane constraints: x ≤ 0.5 and y ≤ 0.3; maximize x + 2y.
	p := easybo.Problem{
		Name: "halfplanes",
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
		Objective: func(x []float64) float64 {
			return x[0] + 2*x[1]
		},
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 { return x[0] - 0.5 },
		func(x []float64) float64 { return x[1] - 0.3 },
	}
	res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
		Workers: 2, MaxEvals: 60, InitPoints: 12, Seed: 5, FitIters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no feasible design found")
	}
	want := 0.5 + 2*0.3
	if res.BestY > want+1e-9 {
		t.Fatalf("best %v impossible under constraints", res.BestY)
	}
	if res.BestY < want-0.35 {
		t.Fatalf("best %v too far from the corner optimum %v", res.BestY, want)
	}
}

func TestOptimizeConstrainedValidation(t *testing.T) {
	p, _ := linearUnderDisk()
	if _, err := easybo.OptimizeConstrained(p, nil, easybo.Options{}); err == nil {
		t.Fatal("missing constraints must fail")
	}
	bad := easybo.Problem{Lo: []float64{1}, Hi: []float64{0},
		Objective: func([]float64) float64 { return 0 }}
	if _, err := easybo.OptimizeConstrained(bad, []easybo.Constraint{func([]float64) float64 { return 0 }},
		easybo.Options{}); err == nil {
		t.Fatal("bad bounds must fail")
	}
}

func TestOptimizeConstrainedDeterministic(t *testing.T) {
	p, cons := linearUnderDisk()
	opts := easybo.Options{Workers: 3, MaxEvals: 40, InitPoints: 12, Seed: 7, FitIters: 10}
	r1, err := easybo.OptimizeConstrained(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := easybo.OptimizeConstrained(p, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestY != r2.BestY || r1.Seconds != r2.Seconds {
		t.Fatal("constrained optimization not deterministic")
	}
}

// A non-finite objective or constraint is a failed evaluation: it is listed
// with Err set, is never feasible or the incumbent, and the surrogates never
// see it, so the run goes on.
func TestOptimizeConstrainedNonFiniteOutputsFail(t *testing.T) {
	p, _ := linearUnderDisk()
	t.Run("NaN constraint is not feasible", func(t *testing.T) {
		calls := 0
		cons := []easybo.Constraint{func([]float64) float64 {
			if calls++; calls == 6 {
				return math.NaN()
			}
			return 1
		}}
		res, err := easybo.OptimizeConstrained(p, cons, easybo.Options{Workers: 1, MaxEvals: 6, InitPoints: 6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		last := res.Evaluations[5]
		if res.Found || last.Feasible || last.Err == nil || !math.IsNaN(last.Y) {
			t.Fatalf("Found=%v, last evaluation %+v: a NaN constraint must fail the evaluation", res.Found, last)
		}
	})
	t.Run("the run survives them", func(t *testing.T) {
		_, cons := linearUnderDisk()
		calls := 0
		q := p
		q.Objective = func(x []float64) float64 {
			if calls++; calls == 2 {
				return math.Inf(1)
			}
			return p.Objective(x)
		}
		disk := cons[0]
		cons[0] = func(x []float64) float64 {
			if calls == 4 {
				return math.Inf(-1)
			}
			return disk(x)
		}
		res, err := easybo.OptimizeConstrained(q, cons, easybo.Options{Workers: 2, MaxEvals: 14, InitPoints: 6, Seed: 1, FitIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for _, e := range res.Evaluations {
			if e.Err == nil {
				continue
			}
			failed++
			if e.Feasible || &e.X[0] == &res.BestX[0] {
				t.Fatalf("failed evaluation %+v is feasible or the reported best", e)
			}
		}
		if len(res.Evaluations) != 14 || failed != 2 {
			t.Fatalf("%d evaluations, %d failed; want 14 and 2", len(res.Evaluations), failed)
		}
	})
}
