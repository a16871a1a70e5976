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
	const asks = 40
	for _, prob := range []*objective.Problem{objective.Hartmann6(), testbench.OpAmp()} {
		for _, n := range posteriorSizes {
			for _, backend := range posteriorBackends {
				name := fmt.Sprintf("%s/n=%d/%s", prob.Name, n, backend)
				if raceEnabled && name != "opamp/n=30/exact" {
					continue
				}
				t.Run(name, func(t *testing.T) {
					view, rng := fixedPosterior(t, prob, n, backend)
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

// The fixed posteriors of the counted pins: a problem at each of these
// observation counts, on each backend.
var (
	posteriorSizes    = []int{30, 80, 140}
	posteriorBackends = []surrogate.Backend{surrogate.BackendExact, surrogate.BackendFeatures}
)

// fixedPosterior fits prob at n Latin-hypercube observations, seeded by n,
// and hallucinates four busy points on it. It returns the view and the
// random source, which the caller goes on drawing the asks from.
func fixedPosterior(t *testing.T, prob *objective.Problem, n int, backend surrogate.Backend) (surrogate.Surrogate, *rand.Rand) {
	t.Helper()
	const busyPoints = 4
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
	return view, rng
}

// TestSweepWithinSeedSpread is the counted quality pin behind the
// generation-2 proposer, whose sweep is max(20·d, 100) candidates where
// generation 1 swept max(60·d, 200). On the twelve posteriors of
// TestGradientRefineBeatsSimplex, and on twelve more of Branin and Ackley-3
// (where the floor of 100 decides the size), forty asks each are maximized
// three times, all with the same weight on the same view: with generation
// 1's sweep at a seed s, with generation 1's sweep at a second seed s′, and
// with the default sweep at s′. Counted per problem group, the asks in which
// the s′ run ends at least as high as the s run say how often a different
// draw of generation 1's sweep does as well as the first; the default sweep
// must do so in no more than 5 % of the asks fewer. It is a count, not a
// timing: it says the smaller sweep loses no more to the first seed than
// another draw of the larger one does. A default of 10·d with no floor fails
// it on Branin and Ackley-3 (DESIGN.md §17.1).
func TestSweepWithinSeedSpread(t *testing.T) {
	if raceEnabled {
		t.Skip("a count of acquisition values; the race detector has nothing to find in it")
	}
	const asks = 40
	for _, group := range []struct {
		name  string
		probs []*objective.Problem
	}{
		{"hartmann6+opamp", []*objective.Problem{objective.Hartmann6(), testbench.OpAmp()}},
		{"branin+ackley3", []*objective.Problem{objective.Branin(), objective.Ackley(3)}},
	} {
		t.Run(group.name, func(t *testing.T) {
			gen1Count, defaultCount, total := 0, 0, 0
			for _, prob := range group.probs {
				gen1 := optimize.MaximizeOptions{Candidates: max(60*len(prob.Lo), 200)}
				for _, n := range posteriorSizes {
					for _, backend := range posteriorBackends {
						view, rng := fixedPosterior(t, prob, n, backend)
						for ask := 0; ask < asks; ask++ {
							newF := AcqObjective(acq.Weighted{W: acq.SampleWeight(rng, acq.DefaultLambda)}, view)
							maximize := func(seed int64, opts optimize.MaximizeOptions) float64 {
								_, v := optimize.MaximizeGrad(newF, prob.Lo, prob.Hi, rand.New(rand.NewSource(seed)), opts)
								return v
							}
							s, s2 := rng.Int63(), rng.Int63()
							first := maximize(s, gen1)
							if maximize(s2, gen1) >= first {
								gen1Count++
							}
							if maximize(s2, optimize.MaximizeOptions{}) >= first {
								defaultCount++
							}
							total++
						}
					}
				}
			}
			t.Logf("at least as high as the first seed's generation-1 sweep: a second seed's in %d of %d asks, the default sweep's in %d",
				gen1Count, total, defaultCount)
			if 20*(gen1Count-defaultCount) > total {
				t.Errorf("the default sweep matched the first seed in %d of %d asks, more than 5 %% fewer than the %d of a second generation-1 seed",
					defaultCount, total, gen1Count)
			}
		})
	}
}
