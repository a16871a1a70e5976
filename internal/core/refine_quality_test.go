package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"easybo/internal/acq"
	"easybo/internal/objective"
	"easybo/internal/optimize"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
	"easybo/internal/testbench"
)

// TestGradientRefineBeatsSimplex is the counted quality pin behind the
// generation-1 proposer: on twelve fixed posteriors — Hartmann-6 and the
// op-amp testbench, 30, 80 and 140 observations, both backends, four busy
// points hallucinated — forty asks each are maximized twice from the same
// sweep, same weight and same view: by the derivative-free entry (three
// Nelder–Mead searches of 40·d predictions, what generation 0 ran) and by
// MaximizeGrad (three Ascents of at most 30 value-and-gradient evaluations).
// The gradient refine must end on an acquisition value at least as high in
// 80 % of the asks of every case, on at most an eighth of the simplex's
// evaluations. It is a count, not a timing: it says the cheaper maximizer
// is not the worse one.
func TestGradientRefineBeatsSimplex(t *testing.T) {
	const asks, busyPoints = 40, 4
	for _, prob := range []*objective.Problem{objective.Hartmann6(), testbench.OpAmp()} {
		for _, n := range []int{30, 80, 140} {
			for _, backend := range []surrogate.Backend{surrogate.BackendExact, surrogate.BackendFeatures} {
				name := fmt.Sprintf("%s/n=%d/%s", prob.Name, n, backend)
				if raceEnabled && name != "opamp/n=30/exact" {
					continue
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)))
					x := stats.LatinHypercubeIn(rng, n, prob.Lo, prob.Hi)
					y := make([]float64, n)
					for i, xi := range x {
						y[i] = prob.Eval(xi)
					}
					mm, err := NewModelManager(prob.Lo, prob.Hi, rng, ModelManagerOptions{Backend: backend, FitIters: 20})
					if err != nil {
						t.Fatal(err)
					}
					m, err := mm.Fit(x, y)
					if err != nil {
						t.Fatal(err)
					}
					view, err := m.WithPseudo(stats.LatinHypercubeIn(rng, busyPoints, prob.Lo, prob.Hi))
					if err != nil {
						t.Fatal(err)
					}
					wins, gradEvals, simplexEvals := 0, int64(0), int64(0)
					for ask := 0; ask < asks; ask++ {
						w := acq.SampleWeight(rng, acq.DefaultLambda)
						newF := AcqObjective(acq.Weighted{W: w}, view)
						var sweepEvals, nmEvals, gEvals atomic.Int64
						seed := rng.Int63()
						_, vSimplex := optimize.MaximizeParallel(func() optimize.BatchObjective {
							f, _ := newF()
							return func(xs [][]float64, out []float64, floor float64) {
								nmEvals.Add(int64(len(xs)))
								f(xs, out, floor)
							}
						}, prob.Lo, prob.Hi, rand.New(rand.NewSource(seed)), optimize.MaximizeOptions{})
						_, vGrad := optimize.MaximizeGrad(func() (optimize.BatchObjective, optimize.GradObjective) {
							f, g := newF()
							return func(xs [][]float64, out []float64, floor float64) {
									sweepEvals.Add(int64(len(xs)))
									f(xs, out, floor)
								}, func(x, grad []float64) float64 {
									gEvals.Add(1)
									return g(x, grad)
								}
						}, prob.Lo, prob.Hi, rand.New(rand.NewSource(seed)), optimize.MaximizeOptions{})
						if vGrad >= vSimplex {
							wins++
						}
						gradEvals += gEvals.Load()
						simplexEvals += nmEvals.Load() - sweepEvals.Load() // both swept the same candidates
					}
					t.Logf("gradient refine at least as high in %d of %d asks; %.1f gradient evaluations an ask against %.1f simplex predictions",
						wins, asks, float64(gradEvals)/asks, float64(simplexEvals)/asks)
					if 10*wins < 8*asks {
						t.Errorf("gradient refine at least as high in only %d of %d asks", wins, asks)
					}
					if 8*gradEvals > simplexEvals {
						t.Errorf("%d gradient evaluations are more than an eighth of %d simplex predictions", gradEvals, simplexEvals)
					}
				})
			}
		}
	}
}
