package objective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Branin()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Problem{Lo: []float64{0}, Hi: []float64{1}}
	if bad.Validate() == nil {
		t.Fatal("nil Eval must fail")
	}
	bad2 := &Problem{Lo: []float64{1}, Hi: []float64{0}, Eval: func([]float64) float64 { return 0 }}
	if bad2.Validate() == nil {
		t.Fatal("inverted bounds must fail")
	}
	bad3 := &Problem{Lo: []float64{0, 0}, Hi: []float64{1}, Eval: func([]float64) float64 { return 0 }}
	if bad3.Validate() == nil {
		t.Fatal("bounds length mismatch must fail")
	}
}

func TestKnownOptima(t *testing.T) {
	cases := []struct {
		p    *Problem
		x    []float64
		want float64
	}{
		{Branin(), []float64{math.Pi, 2.275}, 0},
		{Branin(), []float64{-math.Pi, 12.275}, 0},
		{Branin(), []float64{9.42478, 2.475}, 0},
		{Sphere(3), []float64{0, 0, 0}, 0},
		{Rosenbrock(4), []float64{1, 1, 1, 1}, 0},
		{Hartmann6(), []float64{0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573}, 3.32237},
	}
	for _, c := range cases {
		got := c.p.Eval(c.x)
		if math.Abs(got-c.want) > 1e-3 {
			t.Fatalf("%s at %v = %v, want %v", c.p.Name, c.x, got, c.want)
		}
	}
	if v := Ackley(4).Eval([]float64{0, 0, 0, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("Ackley origin = %v", v)
	}
}

func TestOptimaAreMaxima(t *testing.T) {
	// Random points must never exceed the known best value.
	rng := rand.New(rand.NewSource(1))
	problems := []*Problem{Branin(), Sphere(3), Rosenbrock(3), Ackley(5), Hartmann6()}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, p := range problems {
			x := make([]float64, len(p.Lo))
			for j := range x {
				x[j] = p.Lo[j] + r.Float64()*(p.Hi[j]-p.Lo[j])
			}
			if p.Eval(x) > p.BestKnown+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalWithCostDefaultsToUnit(t *testing.T) {
	p := Sphere(2)
	y, cost := p.EvalWithCost([]float64{1, 1})
	if y != -2 || cost != 1 {
		t.Fatalf("y=%v cost=%v", y, cost)
	}
	q := WithCost(p, func(x []float64) float64 { return 42 })
	if _, c := q.EvalWithCost([]float64{0, 0}); c != 42 {
		t.Fatalf("cost = %v", c)
	}
	// WithCost must not mutate the original.
	if p.Cost != nil {
		t.Fatal("WithCost mutated the source problem")
	}
}

func TestDim(t *testing.T) {
	if len(Hartmann6().Lo) != 6 || len(Branin().Lo) != 2 || len(Ackley(7).Lo) != 7 {
		t.Fatal("Dim wrong")
	}
}
