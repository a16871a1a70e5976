package core

import (
	"math"
	"math/rand"
	"testing"

	"easybo/internal/surrogate"
)

// constrainedSetup trains an objective surrogate preferring large x[0] and a
// constraint surrogate that forbids x[0] > 0.5 (c(x) = x[0] - 0.5 <= 0).
func constrainedSetup(t *testing.T, rng *rand.Rand) (obj surrogate.Surrogate, cons []surrogate.Surrogate, lo, hi []float64) {
	t.Helper()
	lo = []float64{0, 0}
	hi = []float64{1, 1}
	var xs [][]float64
	var ys, cs []float64
	for i := 0; i < 30; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, x[0])
		cs = append(cs, x[0]-0.5)
	}
	om, err := trainExact(xs, ys, lo, hi, rng, 25)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := trainExact(xs, cs, lo, hi, rng, 25)
	if err != nil {
		t.Fatal(err)
	}
	return om, []surrogate.Surrogate{cm}, lo, hi
}

func TestProposeConstrainedRespectsFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	obj, cons, lo, hi := constrainedSetup(t, rng)
	p := &ConstrainedProposer{Lambda: 6, Penalize: true}
	// With a feasible incumbent, proposals should concentrate near the
	// feasibility boundary x[0] ≈ 0.5 (best feasible objective), not at the
	// unconstrained optimum x[0] = 1.
	hits := 0
	for i := 0; i < 8; i++ {
		x, err := p.ProposeConstrained(obj, cons, nil, lo, hi, true, rng)
		if err != nil {
			t.Fatal(err)
		}
		if x[0] < lo[0] || x[0] > hi[0] || x[1] < lo[1] || x[1] > hi[1] {
			t.Fatalf("proposal out of box: %v", x)
		}
		if x[0] < 0.62 { // allows some exploration above the boundary
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("only %d of 8 proposals respected the feasible region", hits)
	}
}

func TestProposeConstrainedFeasibilityHunt(t *testing.T) {
	// anyFeasible = false: proposals maximize the probability of feasibility,
	// i.e. drive x[0] low where the constraint surrogate is most negative.
	rng := rand.New(rand.NewSource(2))
	obj, cons, lo, hi := constrainedSetup(t, rng)
	p := &ConstrainedProposer{Lambda: 6}
	x, err := p.ProposeConstrained(obj, cons, nil, lo, hi, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] > 0.5 {
		t.Fatalf("feasibility hunt proposed x[0]=%v, expected deep inside the feasible half", x[0])
	}
}

func TestProposeConstrainedWithBusyPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	obj, cons, lo, hi := constrainedSetup(t, rng)
	p := &ConstrainedProposer{Lambda: 6, Penalize: true}
	busy := [][]float64{{0.45, 0.5}, {0.48, 0.2}}
	x, err := p.ProposeConstrained(obj, cons, busy, lo, hi, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !isFinite(x) {
		t.Fatalf("bad proposal %v", x)
	}
}

func TestProposeConstrainedNilObjective(t *testing.T) {
	p := &ConstrainedProposer{Lambda: 6}
	if _, err := p.ProposeConstrained(nil, nil, nil, []float64{0}, []float64{1}, true,
		rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("nil objective must fail")
	}
}

func isFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
