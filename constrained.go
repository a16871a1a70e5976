package easybo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/core"
	"easybo/internal/gp"
	"easybo/internal/sched"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// Constraint is a black-box inequality constraint: the design x is feasible
// when the returned value is <= 0. Constraints are evaluated together with
// the objective (one simulator run yields all outputs, as is typical for a
// circuit testbench).
type Constraint func(x []float64) float64

// ConstrainedEvaluation extends Evaluation with the measured constraints.
type ConstrainedEvaluation struct {
	Evaluation
	Constraints []float64
	Feasible    bool
}

// ConstrainedResult is the outcome of OptimizeConstrained.
type ConstrainedResult struct {
	// BestX/BestY describe the best FEASIBLE design found; Found is false
	// when no feasible design was observed within the budget (BestX then
	// holds the design with the smallest worst-case violation).
	BestX       []float64
	BestY       float64
	Found       bool
	Evaluations []ConstrainedEvaluation
	Seconds     float64
}

// OptimizeConstrained maximizes the objective subject to c_j(x) <= 0 with
// asynchronous constrained EasyBO: independent GP surrogates for the
// objective and every constraint, feasibility-weighted acquisition, and the
// same hallucination-based batch diversity as the unconstrained algorithm.
// This implements the constrained extension the paper announces as future
// work (§II-A).
//
// It is Algorithm 1 on virtual time, the same ask/tell machine Optimize
// runs: whenever a worker is idle it gets the next point, so every worker
// starts, and a pool larger than the initial design fills as soon as the
// first result is in.
//
// Of Options it honours Workers, InitPoints, MaxEvals, Seed, Lambda,
// FitIters (default 30), Algorithm (EasyBO or EasyBOA; anything else runs
// as EasyBO) and Async.Context, which cancels the run between completions.
// It retrains every surrogate, an exact GP per output, before every
// model-based point, each from the default start and one random restart,
// run side by side on up to GOMAXPROCS goroutines; so Surrogate,
// EscalateAt and RefitEvery are not consulted, nor is the rest of Async:
// an evaluation whose objective or any constraint is NaN or ±Inf is a
// failed evaluation whatever the policy — listed in Evaluations with Err
// set and Feasible false, never the reported best, never shown to a
// surrogate — and still spends one of MaxEvals.
func OptimizeConstrained(p Problem, constraints []Constraint, opts Options) (*ConstrainedResult, error) {
	if _, err := p.toInternal(); err != nil {
		return nil, err
	}
	if len(constraints) == 0 {
		return nil, errors.New("easybo: OptimizeConstrained requires at least one constraint")
	}
	for j, c := range constraints {
		if c == nil {
			return nil, fmt.Errorf("easybo: constraint %d is nil", j)
		}
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.InitPoints <= 0 {
		opts.InitPoints = core.DefaultInitPoints
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 150
	}
	if opts.MaxEvals < opts.InitPoints {
		opts.InitPoints = opts.MaxEvals
	}
	if opts.FitIters <= 0 {
		opts.FitIters = 30
	}
	ctx := opts.Async.Context
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	init := stats.LatinHypercubeIn(rng, opts.InitPoints, p.Lo, p.Hi)

	// One run yields the objective and every constraint. A non-finite
	// constraint fails the run the way a non-finite objective does, so the
	// executor classifies both.
	var outputs [][]float64 // constraint values by launch ID
	ex := sched.NewVirtual(opts.Workers, func(x []float64) (float64, float64) {
		y := p.Objective(x)
		cs := make([]float64, len(constraints))
		for j, c := range constraints {
			if cs[j] = c(x); sched.ValueErr(cs[j]) != nil {
				y = math.NaN()
			}
		}
		outputs = append(outputs, cs)
		cost := 1.0
		if p.Cost != nil {
			cost = p.Cost(x)
		}
		return y, cost
	})

	// The constrained path trains one exact GP per output: constraint
	// surfaces are usually sharp near their boundary, which is exactly where
	// the feature expansion is weakest, so backend selection is not offered
	// here. The objective's model goes to the machine, the constraints'
	// models to the proposer.
	obsC := make([][]float64, len(constraints)) // per-constraint columns
	consM := make([]surrogate.Surrogate, len(constraints))
	train := func(x [][]float64, y []float64, iters int) (surrogate.Surrogate, error) {
		return surrogate.NewExact(x, y, p.Lo, p.Hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
			return gp.FitHyper(gp.SEARD{}, xs, ys, rng, &gp.FitOptions{Iters: iters, Restarts: 1})
		})
	}
	fit := func(x [][]float64, y []float64) (surrogate.Surrogate, error) {
		objM, err := train(x, y, opts.FitIters)
		if err != nil {
			return nil, err
		}
		for j := range consM {
			if consM[j], err = train(x, obsC[j], opts.FitIters/2); err != nil {
				return nil, err
			}
		}
		return objM, nil
	}

	res := &ConstrainedResult{BestY: math.Inf(-1)}
	bestViolation := math.Inf(1)
	proposer := &core.ConstrainedProposer{Lambda: opts.Lambda, Penalize: opts.Algorithm != EasyBOA}
	propose := proposerFunc(func(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) ([]float64, float64, error) {
		x, err := proposer.ProposeConstrained(m, consM, busy, lo, hi, res.Found, rng)
		return x, 0, err
	})
	observe := func(r sched.Result) {
		cs := outputs[r.ID]
		e := ConstrainedEvaluation{Evaluation: evalFromResult(r), Constraints: cs, Feasible: r.Err == nil}
		worst := math.Inf(-1)
		for _, cv := range cs {
			if cv > 0 {
				e.Feasible = false
			}
			if cv > worst {
				worst = cv
			}
		}
		res.Evaluations = append(res.Evaluations, e)
		res.Seconds = max(res.Seconds, r.End)
		if r.Err != nil {
			return
		}
		for j, cv := range cs {
			obsC[j] = append(obsC[j], cv)
		}
		switch {
		case e.Feasible && (!res.Found || r.Y > res.BestY):
			res.BestX, res.BestY, res.Found = r.X, r.Y, true
		case !res.Found && worst < bestViolation:
			res.BestX, bestViolation = r.X, worst
		}
	}

	at, err := core.NewAskTell(core.AskTellConfig{
		MaxEvals: opts.MaxEvals, Init: init, Lo: p.Lo, Hi: p.Hi,
		Fit: fit, Proposer: propose, Rng: rng,
		Failure: core.FailSkip, OnResult: observe, OnFailure: observe,
	})
	if err != nil {
		return nil, err
	}
	if err := at.Run(ctx, ex, false); err != nil {
		return nil, err
	}
	return res, nil
}

// proposerFunc is a function behind core.PointProposer.
type proposerFunc func(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) ([]float64, float64, error)

func (f proposerFunc) Propose(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) ([]float64, float64, error) {
	return f(m, busy, lo, hi, rng)
}
