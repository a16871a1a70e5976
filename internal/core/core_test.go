package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"easybo/internal/acq"
	"easybo/internal/gp"
	"easybo/internal/optimize"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// trainExact fits the exact GP with a marginal-likelihood search of iters
// Adam steps on rng.
func trainExact(x [][]float64, y, lo, hi []float64, rng *rand.Rand, iters int) (*surrogate.Exact, error) {
	return surrogate.NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.FitHyper(gp.SEARD{}, xs, ys, rng, &gp.FitOptions{Iters: iters})
	})
}

func trainedModel(t *testing.T, rng *rand.Rand, n int) (surrogate.Surrogate, []float64, []float64) {
	t.Helper()
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	f := func(x []float64) float64 {
		return math.Sin(5*x[0]) + math.Cos(3*x[1])
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	m, err := trainExact(xs, ys, lo, hi, rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	return m, lo, hi
}

func TestProposeStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, lo, hi := trainedModel(t, rng, 15)
	p := &Proposer{Lambda: 6, Penalize: true}
	for i := 0; i < 10; i++ {
		x, w, err := p.Propose(m, nil, lo, hi, rng)
		if err != nil {
			t.Fatal(err)
		}
		if w < 0 || w > 6.0/7.0+1e-12 {
			t.Fatalf("weight %v outside EasyBO support", w)
		}
		for j := range x {
			if x[j] < lo[j] || x[j] > hi[j] {
				t.Fatalf("proposal out of box: %v", x)
			}
		}
	}
}

// TestAcqObjectiveMatchesPointwiseAcquisition pins the maximizer's batched
// objective to the plain definition it replaced: the acquisition evaluated on
// the standardized predictor, one point at a time. Same bits for every
// acquisition in the stack and for every batch size the maximizer may pass.
func TestAcqObjectiveMatchesPointwiseAcquisition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _, _ := trainedModel(t, rng, 25)
	view, err := m.WithPseudo([][]float64{{0.4, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	best := view.StandardizeY(1.2)
	for _, a := range []acq.Func{
		acq.Weighted{W: 0.7}, acq.UCB{Kappa: 2}, acq.LCB{Kappa: 1.5},
		acq.EI{Best: best, Xi: 0.01}, acq.PI{Best: best, Xi: 0.01},
	} {
		f, _ := AcqObjective(a, view)()
		std := view.StandardizedPredictor()
		for n := 1; n <= optimize.MaxBatch; n++ {
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = []float64{rng.Float64(), rng.Float64()}
			}
			out := make([]float64, n)
			f(xs, out, math.Inf(-1))
			for i, x := range xs {
				if want := a.Value(std, x); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s, batch of %d, point %d: objective %v, acquisition %v", a.Name(), n, i, out[i], want)
				}
			}
		}
	}
}

func TestProposeNilModel(t *testing.T) {
	p := &Proposer{Lambda: 6}
	if _, _, err := p.Propose(nil, nil, []float64{0}, []float64{1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("nil model must fail")
	}
}

func TestProposeAvoidsBusyPointsWhenPenalized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, lo, hi := trainedModel(t, rng, 12)

	// Find where the unpenalized proposer wants to go with a fixed seed.
	free := &Proposer{Lambda: 6, Penalize: false}
	xFree, _, err := free.Propose(m, nil, lo, hi, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Mark exactly that point busy; the penalized proposer with the same
	// inner-rng must move elsewhere.
	pen := &Proposer{Lambda: 6, Penalize: true}
	xPen, _, err := pen.Propose(m, [][]float64{xFree}, lo, hi, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var d float64
	for j := range xFree {
		diff := xFree[j] - xPen[j]
		d += diff * diff
	}
	if math.Sqrt(d) < 1e-3 {
		t.Fatalf("penalized proposal did not move away from the busy point: %v vs %v", xFree, xPen)
	}
}

func TestProposeBatchSizesAndDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, lo, hi := trainedModel(t, rng, 12)
	p := &Proposer{Lambda: 6, Penalize: true}
	batch, err := p.ProposeBatch(m, 4, lo, hi, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch size %d", len(batch))
	}
	// No exact duplicates within the batch.
	for i := 0; i < len(batch); i++ {
		for j := i + 1; j < len(batch); j++ {
			same := true
			for k := range batch[i] {
				if batch[i][k] != batch[j][k] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("duplicate batch points %d and %d: %v", i, j, batch[i])
			}
		}
	}
	if _, err := p.ProposeBatch(m, 0, lo, hi, rng); err == nil {
		t.Fatal("batch size 0 must fail")
	}
}

func TestAsyncLoopRunsAlgorithm1(t *testing.T) {
	// Objective with position-dependent costs; the loop must complete
	// exactly MaxEvals evaluations and keep results flowing in end-time
	// order.
	f := func(x []float64) (float64, float64) {
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2), 1 + 3*x[0]
	}
	ex := sched.NewVirtual(3, f)
	rng := rand.New(rand.NewSource(4))
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	var init [][]float64
	for i := 0; i < 8; i++ {
		init = append(init, []float64{rng.Float64(), rng.Float64()})
	}
	fit := func(xs [][]float64, ys []float64) (surrogate.Surrogate, error) {
		m, err := trainExact(xs, ys, lo, hi, rng, 10)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	var seen []sched.Result
	err := runAsync(context.Background(), ex, AskTellConfig{
		MaxEvals: 25,
		Init:     init,
		Lo:       lo, Hi: hi,
		Fit:      fit,
		Proposer: &Proposer{Lambda: 6, Penalize: true},
		Rng:      rng,
		OnResult: func(r sched.Result) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 25 {
		t.Fatalf("completions = %d", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].End < seen[i-1].End {
			t.Fatal("results out of completion order")
		}
	}
	// The later proposals should concentrate toward the optimum (0.7, 0.2):
	// the best observed value must beat the best initial-design value.
	bestInit, bestAll := math.Inf(-1), math.Inf(-1)
	for i, r := range seen {
		if i < len(init) && r.Y > bestInit {
			bestInit = r.Y
		}
		if r.Y > bestAll {
			bestAll = r.Y
		}
	}
	if bestAll < bestInit {
		t.Fatal("optimization made things worse than the initial design")
	}
}

func TestAsyncLoopValidation(t *testing.T) {
	ex := sched.NewVirtual(1, func(x []float64) (float64, float64) { return 0, 1 })
	rng := rand.New(rand.NewSource(5))
	base := AskTellConfig{
		MaxEvals: 5,
		Init:     [][]float64{{0.5}},
		Lo:       []float64{0}, Hi: []float64{1},
		Fit:      func(x [][]float64, y []float64) (surrogate.Surrogate, error) { return nil, nil },
		Proposer: &Proposer{Lambda: 6},
		Rng:      rng,
	}
	bad := base
	bad.Fit = nil
	if err := runAsync(context.Background(), ex, bad); err == nil {
		t.Fatal("nil Fit must fail")
	}
	bad = base
	bad.Proposer = nil
	if err := runAsync(context.Background(), ex, bad); err == nil {
		t.Fatal("nil Proposer must fail")
	}
	bad = base
	bad.Rng = nil
	if err := runAsync(context.Background(), ex, bad); err == nil {
		t.Fatal("nil Rng must fail")
	}
	bad = base
	bad.Init = nil
	if err := runAsync(context.Background(), ex, bad); err == nil {
		t.Fatal("empty init without the random fallback must fail: nothing to fit on")
	}
	bad = base
	bad.MaxEvals = 0
	if err := runAsync(context.Background(), ex, bad); err == nil {
		t.Fatal("Run without a budget must fail")
	}
}
