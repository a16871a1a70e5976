package optimize

import (
	"math/rand"
)

// DEOptions configures differential evolution (rand/1/bin), the classic
// simulation-based baseline the paper compares against [13].
type DEOptions struct {
	PopSize  int // population size (default 50)
	MaxEvals int // total objective evaluations (required)
}

// The rand/1/bin scheme's fixed settings.
const (
	deF  = 0.5 // differential weight
	deCR = 0.9 // crossover rate
)

// DEResult reports the best point found and the evaluation trace.
type DEResult struct {
	X     []float64
	Y     float64
	Evals int
}

// DE maximizes f over [lo, hi] with differential evolution.
func DE(f Objective, lo, hi []float64, rng *rand.Rand, opts DEOptions) DEResult {
	d := len(lo)
	if opts.PopSize <= 0 {
		opts.PopSize = 50
	}
	if opts.PopSize < 4 {
		opts.PopSize = 4
	}
	np := opts.PopSize

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	pop := make([][]float64, np)
	fit := make([]float64, np)
	bestIdx := 0
	for i := range pop {
		x := make([]float64, d)
		for j := range x {
			x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		pop[i] = x
		if evals >= opts.MaxEvals {
			fit[i] = fit[bestIdx] - 1 // unevaluated stragglers rank last
			continue
		}
		fit[i] = eval(x)
		if fit[i] > fit[bestIdx] {
			bestIdx = i
		}
	}

	trial := make([]float64, d)
	for evals < opts.MaxEvals {
		for i := 0; i < np && evals < opts.MaxEvals; i++ {
			// Pick three distinct indices != i.
			var a, b, c int
			for {
				a = rng.Intn(np)
				if a != i {
					break
				}
			}
			for {
				b = rng.Intn(np)
				if b != i && b != a {
					break
				}
			}
			for {
				c = rng.Intn(np)
				if c != i && c != a && c != b {
					break
				}
			}
			jr := rng.Intn(d)
			for j := 0; j < d; j++ {
				if j == jr || rng.Float64() < deCR {
					trial[j] = pop[a][j] + deF*(pop[b][j]-pop[c][j])
					if trial[j] < lo[j] {
						trial[j] = lo[j]
					}
					if trial[j] > hi[j] {
						trial[j] = hi[j]
					}
				} else {
					trial[j] = pop[i][j]
				}
			}
			y := eval(trial)
			if y >= fit[i] {
				copy(pop[i], trial)
				fit[i] = y
				if y > fit[bestIdx] {
					bestIdx = i
				}
			}
		}
	}
	return DEResult{X: append([]float64(nil), pop[bestIdx]...), Y: fit[bestIdx], Evals: evals}
}
