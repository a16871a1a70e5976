package optimize

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// negSphere peaks at the box midpoint c with value 0.
func negSphere(c []float64) Objective {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - c[i]
			s += d * d
		}
		return -s
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	lo := []float64{-5, -5, -5}
	hi := []float64{5, 5, 5}
	c := []float64{1.2, -0.7, 3.3}
	x, v := NelderMead(negSphere(c), []float64{0, 0, 0}, lo, hi, NelderMeadOptions{MaxEvals: 2000})
	if v < -1e-6 {
		t.Fatalf("NelderMead value %v", v)
	}
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-3 {
			t.Fatalf("NelderMead x = %v, want %v", x, c)
		}
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Optimum outside the box: solution must sit on the boundary.
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	c := []float64{2, 0.5}
	x, _ := NelderMead(negSphere(c), []float64{0.5, 0.5}, lo, hi, NelderMeadOptions{MaxEvals: 1000})
	if x[0] < 0 || x[0] > 1 || x[1] < 0 || x[1] > 1 {
		t.Fatalf("out of bounds: %v", x)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-0.5) > 1e-2 {
		t.Fatalf("boundary optimum missed: %v", x)
	}
}

func TestMaximizeFindsGlobalAmongLocals(t *testing.T) {
	// f has a local bump at 0.2 (height 1) and global bump at 0.8 (height 2).
	f := func(x []float64) float64 {
		b1 := math.Exp(-100 * (x[0] - 0.2) * (x[0] - 0.2))
		b2 := 2 * math.Exp(-100*(x[0]-0.8)*(x[0]-0.8))
		return b1 + b2
	}
	rng := rand.New(rand.NewSource(42))
	x, v := Maximize(f, []float64{0}, []float64{1}, rng, MaximizeOptions{})
	if math.Abs(x[0]-0.8) > 0.01 || v < 1.99 {
		t.Fatalf("global optimum missed: x=%v v=%v", x, v)
	}
}

func TestMaximizeInBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		lo := make([]float64, d)
		hi := make([]float64, d)
		c := make([]float64, d)
		for i := range lo {
			lo[i] = -1 - r.Float64()
			hi[i] = 1 + r.Float64()
			c[i] = lo[i] + r.Float64()*(hi[i]-lo[i])
		}
		x, _ := Maximize(negSphere(c), lo, hi, rng, MaximizeOptions{Candidates: 100, RefineEval: 50})
		for i := range x {
			if x[i] < lo[i]-1e-12 || x[i] > hi[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximizeDeterministicGivenSeed(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(5*x[0]) * math.Cos(3*x[1]) }
	lo := []float64{0, 0}
	hi := []float64{3, 3}
	x1, v1 := Maximize(f, lo, hi, rand.New(rand.NewSource(9)), MaximizeOptions{})
	x2, v2 := Maximize(f, lo, hi, rand.New(rand.NewSource(9)), MaximizeOptions{})
	if v1 != v2 || x1[0] != x2[0] || x1[1] != x2[1] {
		t.Fatal("Maximize not deterministic for fixed seed")
	}
}

func TestDESphere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo := []float64{-5, -5, -5, -5}
	hi := []float64{5, 5, 5, 5}
	c := []float64{1, 2, -3, 0.5}
	res := DE(negSphere(c), lo, hi, rng, DEOptions{PopSize: 30, MaxEvals: 6000}, nil)
	if res.Y < -1e-3 {
		t.Fatalf("DE best %v", res.Y)
	}
	if res.Evals != 6000 {
		t.Fatalf("DE evals = %d", res.Evals)
	}
}

func TestDERosenbrock(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return -(a*a + 100*b*b)
	}
	lo := []float64{-2, -2}
	hi := []float64{2, 2}
	res := DE(f, lo, hi, rng, DEOptions{PopSize: 40, MaxEvals: 8000}, nil)
	if res.Y < -1e-4 {
		t.Fatalf("DE Rosenbrock best %v at %v", res.Y, res.X)
	}
}

func TestDEOnEvalCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	count := 0
	var lastY float64
	DE(negSphere([]float64{0}), []float64{-1}, []float64{1}, rng,
		DEOptions{PopSize: 10, MaxEvals: 100},
		func(x []float64, y float64) {
			count++
			lastY = y
			if len(x) != 1 {
				t.Fatal("bad x in callback")
			}
		})
	if count != 100 {
		t.Fatalf("callback count = %d, want 100", count)
	}
	if lastY > 0 {
		t.Fatal("impossible objective value")
	}
}

func TestDERespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	DE(func(x []float64) float64 {
		for i := range x {
			if x[i] < lo[i] || x[i] > hi[i] {
				t.Fatalf("DE evaluated out of bounds: %v", x)
			}
		}
		return x[0] + x[1]
	}, lo, hi, rng, DEOptions{PopSize: 12, MaxEvals: 500}, nil)
}

// TestMaximizeParallelDeterministicAcrossWorkers pins the parallel
// multistart's core guarantee: the result is bit-identical for every worker
// count, because all randomness is drawn before the fan-out, the reduction
// is order-independent, and a point's value does not depend on the batch it
// is scored in. The worker count decides how candidates are chunked and
// which simplexes advance in lockstep (5 refinements: all together, 3+2,
// 2+2+1, one each), and the objective records that it really was batched.
func TestMaximizeParallelDeterministicAcrossWorkers(t *testing.T) {
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - 0.3*float64(i+1)
			s -= d * d
		}
		return s + 0.05*math.Sin(40*x[0])
	}
	lo := []float64{-1, -1, -1}
	hi := []float64{2, 2, 2}
	var refX []float64
	refV := 0.0
	for _, workers := range []int{1, 2, 3, 8, 16} {
		var filled atomic.Bool // some call carried a full MaxBatch
		newF := func() BatchObjective {
			each := Each(f)
			return func(xs [][]float64, out []float64) {
				if len(xs) == 0 || len(xs) > MaxBatch || len(xs) != len(out) {
					t.Errorf("workers=%d: batch of %d points into %d values", workers, len(xs), len(out))
				}
				if len(xs) == MaxBatch {
					filled.Store(true)
				}
				each(xs, out)
			}
		}
		rng := rand.New(rand.NewSource(42))
		x, v := MaximizeParallel(newF, lo, hi, rng,
			MaximizeOptions{Candidates: 120, Refine: 5, Workers: workers})
		if workers == 1 && !filled.Load() {
			t.Fatal("serial sweep never filled a batch")
		}
		if refX == nil {
			refX, refV = x, v
			continue
		}
		if math.Float64bits(v) != math.Float64bits(refV) {
			t.Fatalf("workers=%d: value %v != reference %v", workers, v, refV)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(refX[i]) {
				t.Fatalf("workers=%d: x[%d] = %v != reference %v", workers, i, x[i], refX[i])
			}
		}
	}
	if refV < -0.2 {
		t.Fatalf("optimum quality too poor: %v", refV)
	}
}

// TestMaximizeMatchesParallelSerial pins the Maximize wrapper to the
// factory-based entry point.
func TestMaximizeMatchesParallelSerial(t *testing.T) {
	f := func(x []float64) float64 { return -(x[0]-0.5)*(x[0]-0.5) - x[1]*x[1] }
	lo := []float64{-1, -1}
	hi := []float64{1, 1}
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	x1, v1 := Maximize(f, lo, hi, r1, MaximizeOptions{Candidates: 80, Workers: 1})
	x2, v2 := MaximizeParallel(func() BatchObjective { return Each(f) }, lo, hi, r2,
		MaximizeOptions{Candidates: 80, Workers: 4})
	if v1 != v2 || x1[0] != x2[0] || x1[1] != x2[1] {
		t.Fatalf("serial (%v,%v) vs parallel (%v,%v)", x1, v1, x2, v2)
	}
}
