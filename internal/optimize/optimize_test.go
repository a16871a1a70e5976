package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
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
	res := DE(negSphere(c), lo, hi, rng, DEOptions{PopSize: 30, MaxEvals: 6000})
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
	res := DE(f, lo, hi, rng, DEOptions{PopSize: 40, MaxEvals: 8000})
	if res.Y < -1e-4 {
		t.Fatalf("DE Rosenbrock best %v at %v", res.Y, res.X)
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
	}, lo, hi, rng, DEOptions{PopSize: 12, MaxEvals: 500})
}

// TestMaximizeParallelDeterministicAcrossWorkers pins the parallel
// multistart's core guarantee, for both refinements: the result is
// bit-identical for every worker count, because all randomness is drawn
// before the fan-out, the reduction is order-independent, and a point's value
// does not depend on the batch or the worker it is scored in. The worker
// count decides how candidates are chunked and how the refinement runs — all
// searches in lockstep on one worker, handed between workers a quantum at a
// time when they outnumber them, one each when they do not — and none of it
// may show: same point, same value, same number of evaluations. The batch
// objective honors the sweep's floor — a candidate below it scores −Inf —
// and since each worker floors its own range with its own running k-th best,
// which candidates are skipped depends on the worker count; the result may
// not. The simplex
// budget is not a multiple of the quantum and the objective is capped just
// under its peak, so the simplexes stop at different times and for both
// reasons: the five starts take 48, 46, 75, 52 and 69 evaluations — Tol on
// the plateau, or the budget. The ascents stop on the plateau's zero
// gradient, on a step that no longer moves, or on their budget.
func TestMaximizeParallelDeterministicAcrossWorkers(t *testing.T) {
	const refineEval = 75
	if refineEval%refineQuantum == 0 {
		t.Fatal("the budget must end inside a quantum")
	}
	// f and its gradient; on the cap the gradient is zero.
	fg := func(x, grad []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - 0.3*float64(i+1)
			s -= d * d
			if grad != nil {
				grad[i] = -2 * d
			}
		}
		if grad != nil {
			grad[0] += 2 * math.Cos(40*x[0])
		}
		if v := s + 0.05*math.Sin(40*x[0]); v < 0.045 {
			return v
		}
		for i := range grad {
			grad[i] = 0
		}
		return 0.045
	}
	lo := []float64{-1, -1, -1}
	hi := []float64{2, 2, 2}
	for _, kind := range []string{"simplex", "grad"} {
		for _, refineN := range []int{1, 3, 5} {
			var refX []float64
			refV, refEvals := 0.0, int64(0)
			skippedBy := map[int64]bool{} // skip counts seen across worker counts
			for _, workers := range []int{1, 2, 3, 4, 7, 16} {
				var filled atomic.Bool // some call carried a full MaxBatch
				var evals, skipped atomic.Int64
				batch := func(xs [][]float64, out []float64, floor float64) {
					if len(xs) == 0 || len(xs) > MaxBatch || len(xs) != len(out) {
						t.Errorf("workers=%d: batch of %d points into %d values", workers, len(xs), len(out))
					}
					if len(xs) == MaxBatch {
						filled.Store(true)
					}
					evals.Add(int64(len(xs)))
					for i, x := range xs {
						if out[i] = fg(x, nil); out[i] < floor {
							out[i] = math.Inf(-1)
							skipped.Add(1)
						}
					}
				}
				rng := rand.New(rand.NewSource(42))
				opts := MaximizeOptions{Candidates: 120, Refine: refineN, RefineEval: refineEval, Workers: workers}
				var x []float64
				var v float64
				if kind == "simplex" {
					x, v = MaximizeParallel(func() BatchObjective { return batch }, lo, hi, rng, opts)
				} else {
					x, v = MaximizeGrad(func() (BatchObjective, GradObjective) {
						return batch, func(x, grad []float64) float64 {
							evals.Add(1)
							return fg(x, grad)
						}
					}, lo, hi, rng, opts)
				}
				skippedBy[skipped.Load()] = true
				if workers == 1 {
					if !filled.Load() {
						t.Fatal("serial sweep never filled a batch")
					}
					refX, refV, refEvals = x, v, evals.Load()
					continue
				}
				what := fmt.Sprintf("%s refine=%d workers=%d", kind, refineN, workers)
				if evals.Load() != refEvals {
					t.Fatalf("%s: %d evaluations, one worker made %d", what, evals.Load(), refEvals)
				}
				if math.Float64bits(v) != math.Float64bits(refV) {
					t.Fatalf("%s: value %v != reference %v", what, v, refV)
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(refX[i]) {
						t.Fatalf("%s: x[%d] = %v != reference %v", what, i, x[i], refX[i])
					}
				}
			}
			if len(skippedBy) < 2 { // two counts differ, so one is not zero
				t.Fatalf("%s refine=%d: skip counts %v across worker counts: the floor went untested", kind, refineN, skippedBy)
			}
			budget := refineEval
			if kind == "grad" {
				budget = ascentEvals
			}
			if most := int64(120 + refineN*budget); refEvals >= most {
				t.Fatalf("%s refine=%d: %d evaluations of at most %d: no search stopped early", kind, refineN, refEvals, most)
			}
			if refEvals <= 120+int64(refineN) {
				t.Fatalf("%s refine=%d: %d evaluations: the refinement never ran", kind, refineN, refEvals)
			}
			if refV < -0.2 {
				t.Fatalf("%s refine=%d: optimum quality too poor: %v", kind, refineN, refV)
			}
		}
	}
}

// TestRefineIsWorkConserving counts, rather than times, what the shared queue
// is for: two workers, three simplexes, and the first worker's first
// evaluation blocks until released (the second worker waits for that before
// its own first, so the test never passes by the first simply starting late).
// Whichever simplex the blocked worker holds, the other worker must run both
// remaining ones to completion meanwhile — a static split strands the second
// simplex dealt to the blocked worker. The simplexes live in boxes ten apart,
// so a point names the simplex that asked for it.
func TestRefineIsWorkConserving(t *testing.T) {
	const d, nref = 3, 3
	f := func(x []float64) float64 {
		s := 0.0
		for j := range x {
			e := x[j] - math.Floor(x[j]/10)*10 - 0.3*float64(j+1)
			s -= e * e
		}
		return s
	}
	owner := func(x []float64) int { return int(x[0] / 10) }
	opts := NelderMeadOptions{MaxEvals: 150} // not a multiple of the quantum
	x0s, los, his := make([][]float64, nref), make([][]float64, nref), make([][]float64, nref)
	var want [nref]int64 // evaluations each search makes alone
	soloX, soloV := make([][]float64, nref), make([]float64, nref)
	for r := 0; r < nref; r++ {
		los[r], his[r] = box(d, float64(10*r), float64(10*r+1))
		x0s[r] = []float64{float64(10*r) + 0.9, float64(10*r) + 0.1, float64(10*r) + 0.2*float64(r+1)}
		soloX[r], soloV[r] = NelderMead(func(x []float64) float64 {
			want[r]++
			return f(x)
		}, x0s[r], los[r], his[r], opts)
		if want[r] <= refineQuantum {
			t.Fatalf("search %d ends inside its first quantum (%d evaluations): nothing would be handed off", r, want[r])
		}
	}

	starts := make([]*Simplex, nref)
	for r := range starts {
		starts[r] = NewSimplex(x0s[r], los[r], his[r], opts)
	}
	var held atomic.Int32 // the simplex whose evaluation is blocked
	var got [nref]atomic.Int64
	blocked, release, othersDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	score := func(xs [][]float64, out []float64) {
		for i, x := range xs {
			out[i] = f(x)
			got[owner(x)].Add(1)
		}
	}
	var first sync.Once
	blocker := func(xs [][]float64, out []float64, _ float64) {
		first.Do(func() {
			held.Store(int32(owner(xs[0])))
			close(blocked)
			<-release
		})
		score(xs, out)
	}
	other := func(xs [][]float64, out []float64, _ float64) {
		<-blocked
		score(xs, out)
		select {
		case <-release:
			return
		default:
		}
		// Equality holds once per search: the call that completes the
		// second one is the only call that sees both.
		for r := range got {
			if r != int(held.Load()) && got[r].Load() != want[r] {
				return
			}
		}
		close(othersDone)
	}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		fs := []BatchObjective{blocker, other}
		refine(len(fs), starts, refineQuantum, func(w int, _ []*Simplex, xs [][]float64, out []float64) { fs[w](xs, out, math.Inf(-1)) })
	}()
	select {
	case <-othersDone:
	case <-time.After(30 * time.Second):
		stuck := [nref]int64{got[0].Load(), got[1].Load(), got[2].Load()}
		close(release)
		<-returned
		t.Fatalf("with simplex %d's evaluation blocked, the searches stood at %v of %v evaluations: a simplex sat unclaimed",
			held.Load(), stuck, want)
	}
	select {
	case <-returned:
		t.Fatal("refine returned with an evaluation still blocked")
	default:
	}
	close(release)
	<-returned
	for r, s := range starts {
		x, v := s.Best()
		if got[r].Load() != want[r] || math.Float64bits(v) != math.Float64bits(soloV[r]) {
			t.Fatalf("search %d: %d evaluations to %v, alone %d to %v", r, got[r].Load(), v, want[r], soloV[r])
		}
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(soloX[r][j]) {
				t.Fatalf("search %d: x[%d] = %v, alone %v", r, j, x[j], soloX[r][j])
			}
		}
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

// TestSweepRanksLikeASort: the sweep's few-pass selection of the best
// candidates is the head of the full ranking it replaced — value descending,
// equal values by candidate index — on an objective quantized so that most
// candidates tie, for every refinement count in use.
func TestSweepRanksLikeASort(t *testing.T) {
	lo, hi := box(2, 0, 1)
	quantized := func(x []float64) float64 { return math.Floor(5 * (x[0] + x[1])) }
	for _, refineN := range []int{1, 2, 3, 5} {
		for seed := int64(0); seed < 20; seed++ {
			opts := MaximizeOptions{Candidates: 60, Refine: refineN, Workers: 1}
			opts.resolve(len(lo))
			var pts [][]float64 // in candidate order: one worker scores them in order
			sw := sweep(lo, hi, rand.New(rand.NewSource(seed)), opts, 1, func(int) BatchObjective {
				return func(xs [][]float64, out []float64, _ float64) {
					pts = append(pts, xs...)
					for i, x := range xs {
						out[i] = quantized(x)
					}
				}
			})
			order := make([]int, len(pts))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return quantized(pts[order[a]]) > quantized(pts[order[b]]) })
			if len(sw.top) != refineN || &sw.x[0] != &sw.top[0][0] || sw.v != quantized(sw.x) {
				t.Fatalf("refine=%d seed=%d: %d starts, best %v = %v", refineN, seed, len(sw.top), sw.x, sw.v)
			}
			for r, x := range sw.top {
				if &x[0] != &pts[order[r]][0] {
					t.Fatalf("refine=%d seed=%d: start %d is %v (%v), the ranking has %v (%v)",
						refineN, seed, r, x, quantized(x), pts[order[r]], quantized(pts[order[r]]))
				}
			}
		}
	}
}
