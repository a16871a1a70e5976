package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"easybo/internal/acq"
	"easybo/internal/gp"
	"easybo/internal/optimize"
	"easybo/internal/surrogate"
)

// floorPosterior draws one seeded posterior for the sweep-floor test: either
// backend, 2–3 dimensions, a handful of observations (sometimes every one
// twice), lengthscales short and long, noise from floored to so large that
// σ sits at its bound, and half the time a hallucinated view.
func floorPosterior(t *testing.T, rng *rand.Rand, seed int) (surrogate.Surrogate, []float64, []float64) {
	t.Helper()
	d := 2 + rng.Intn(2)
	lo, hi := make([]float64, d), make([]float64, d)
	theta := make([]float64, d+1)
	for j := range lo {
		lo[j], hi[j] = -rng.Float64(), 1+rng.Float64()
		theta[j] = math.Log(0.1 + 0.5*rng.Float64())
	}
	n := 2 + rng.Intn(12)
	x, y := make([][]float64, n), make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			y[i] += math.Sin(3 * x[i][j])
		}
	}
	if rng.Intn(4) == 0 {
		x, y = append(x, x...), append(y, y...)
	}
	logNoise := []float64{-12, -3, 0, math.Log(1e3), math.Log(1e8)}[rng.Intn(5)]
	var m surrogate.Surrogate
	if seed%2 == 0 {
		em, err := surrogate.NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
			return gp.Fit(gp.SEARD{}, xs, ys, theta, logNoise)
		})
		if err != nil {
			t.Fatal(err)
		}
		m = em
	} else {
		fm, err := surrogate.FitFeatures(x, y, lo, hi, theta, logNoise, rng, 16+rng.Intn(48))
		if err != nil {
			t.Fatal(err)
		}
		m = fm
	}
	if rng.Intn(2) == 0 {
		busy := make([][]float64, 1+rng.Intn(3))
		for i := range busy {
			busy[i] = make([]float64, d)
			for j := range busy[i] {
				busy[i][j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
		}
		view, err := m.WithPseudo(busy)
		if err != nil {
			t.Fatal(err)
		}
		m = view
	}
	return m, lo, hi
}

// TestSweepFloorChangesNothing is the sweep half of the bound: a
// maximization whose sweep skips the solves its floor rules out returns the
// bits of one that scores every candidate, on 300 seeded posteriors of
// both backends, for every worker count — which decides each worker's range
// and so which candidates are skipped — and every refinement count, which
// decides the floor. It fails if nothing was skipped, so it cannot pass by
// never pruning.
func TestSweepFloorChangesNothing(t *testing.T) {
	const posteriors = 300
	stride := 1
	if raceEnabled {
		stride = 10 // make race runs this test ten times over
	}
	var swept, skipped int64
	for seed := 0; seed < posteriors; seed += stride {
		rng := rand.New(rand.NewSource(int64(seed)))
		view, lo, hi := floorPosterior(t, rng, seed)
		var a acq.Func = acq.Weighted{W: rng.Float64()}
		if seed%5 == 0 {
			a = acq.UCB{Kappa: 3 * rng.Float64()}
		}
		newF := AcqObjective(a, view)
		everything := func() (optimize.BatchObjective, optimize.GradObjective) {
			f, g := newF()
			return func(xs [][]float64, out []float64, _ float64) { f(xs, out, math.Inf(-1)) }, g
		}
		for _, refine := range []int{1, 3, 5} {
			opts := optimize.MaximizeOptions{Candidates: 64, Refine: refine, Workers: 1}
			mseed := rng.Int63()
			wantX, wantV := optimize.MaximizeGrad(everything, lo, hi, rand.New(rand.NewSource(mseed)), opts)
			for _, workers := range []int{1, 2, 3, 4, 7, 16} {
				opts.Workers = workers
				var points, pruned atomic.Int64
				counted := func() (optimize.BatchObjective, optimize.GradObjective) {
					f, g := newF()
					return func(xs [][]float64, out []float64, floor float64) {
						f(xs, out, floor)
						points.Add(int64(len(xs)))
						for _, v := range out {
							if math.IsInf(v, -1) {
								pruned.Add(1)
							}
						}
					}, g
				}
				x, v := optimize.MaximizeGrad(counted, lo, hi, rand.New(rand.NewSource(mseed)), opts)
				what := fmt.Sprintf("posterior %d (%s) refine=%d workers=%d", seed, a.Name(), refine, workers)
				if math.Float64bits(v) != math.Float64bits(wantV) {
					t.Fatalf("%s: value %v, scoring every candidate %v", what, v, wantV)
				}
				for j := range x {
					if math.Float64bits(x[j]) != math.Float64bits(wantX[j]) {
						t.Fatalf("%s: x = %v, scoring every candidate %v", what, x, wantX)
					}
				}
				swept += points.Load()
				skipped += pruned.Load()
			}
		}
	}
	t.Logf("%d of %d sweep candidates skipped their solve (%.1f %%)", skipped, swept, 100*float64(skipped)/float64(swept))
	if skipped == 0 {
		t.Fatal("no candidate was skipped: the floor was never used")
	}
}

// quantized is a posterior certain everywhere (σ = 0, so its bound σ̄ = 0 is
// its value) whose mean takes five levels over the unit square: most
// candidates of a sweep tie, at the floor among other places.
type quantized struct{ surrogate.Surrogate }

func (quantized) StandardizedPredictor() surrogate.Predictor { return quantizedPredictor{} }

type quantizedPredictor struct{}

func (quantizedPredictor) PredictMean(x []float64) float64 { return math.Floor(5*(x[0]+x[1])) / 5 }

func (q quantizedPredictor) Predict(x []float64) (mu, sigma float64) { return q.PredictMean(x), 0 }

func (q quantizedPredictor) PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool) {
	for i, x := range xs {
		mu[i], sigma[i] = q.Predict(x)
		if keep != nil && !keep(mu[i], 0) {
			sigma[i] = -1
		}
	}
}

func (q quantizedPredictor) PredictGrad(x, dmu, dsigma []float64) (mu, sigma float64) {
	for j := range dmu {
		dmu[j], dsigma[j] = 0, 0
	}
	return q.Predict(x)
}

// TestFloorKeepsTies: a candidate whose bound equals the floor is scored, not
// skipped — the floor comparison is strict. On the quantized posterior the
// bound is the value, so every sweep call is checked against the same call
// with no floor: a skipped point must be strictly below its floor, a scored
// one must carry its exact value, and some scored point must sit exactly on
// the floor, so that the check is not vacuous.
func TestFloorKeepsTies(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	newF := AcqObjective(acq.Weighted{W: 0.5}, quantized{})
	for _, refine := range []int{1, 3, 5} {
		for _, workers := range []int{1, 2} {
			var ties, skips atomic.Int64
			for seed := int64(0); seed < 10; seed++ {
				checked := func() (optimize.BatchObjective, optimize.GradObjective) {
					f, g := newF()
					ref := make([]float64, optimize.MaxBatch)
					return func(xs [][]float64, out []float64, floor float64) {
						f(xs, out, floor)
						f(xs, ref[:len(xs)], math.Inf(-1))
						for i, v := range out {
							switch {
							case math.IsInf(v, -1):
								skips.Add(1)
								if !(ref[i] < floor) {
									t.Errorf("refine=%d workers=%d seed=%d: %v skipped at floor %v", refine, workers, seed, ref[i], floor)
								}
							case math.Float64bits(v) != math.Float64bits(ref[i]):
								t.Errorf("refine=%d workers=%d seed=%d: scored %v, exactly %v", refine, workers, seed, v, ref[i])
							//easybolint:ok floateq a value exactly on the floor is the tie the strict comparison must keep
							case v == floor:
								ties.Add(1)
							}
						}
					}, g
				}
				optimize.MaximizeGrad(checked, lo, hi, rand.New(rand.NewSource(seed)),
					optimize.MaximizeOptions{Candidates: 60, Refine: refine, Workers: workers})
			}
			if ties.Load() == 0 || skips.Load() == 0 {
				t.Fatalf("refine=%d workers=%d: %d ties on the floor, %d skips: nothing was tested",
					refine, workers, ties.Load(), skips.Load())
			}
		}
	}
}
