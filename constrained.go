package easybo

import (
	"errors"
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
// Of Options it honours Workers, InitPoints, MaxEvals, Seed, Lambda,
// FitIters (default 30) and Algorithm (EasyBO or EasyBOA; anything else runs
// as EasyBO). It runs on virtual time and retrains every surrogate, an exact
// GP per output, on every completion, so Surrogate, EscalateAt, RefitEvery
// and Async are not consulted: an evaluation whose objective or any
// constraint is NaN or ±Inf is a failed evaluation whatever the policy —
// listed in Evaluations with Err set and Feasible false, never the reported
// best, never shown to a surrogate — and still spends one of MaxEvals.
func OptimizeConstrained(p Problem, constraints []Constraint, opts Options) (*ConstrainedResult, error) {
	if _, err := p.toInternal(); err != nil {
		return nil, err
	}
	if len(constraints) == 0 {
		return nil, errors.New("easybo: OptimizeConstrained requires at least one constraint")
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
	rng := rand.New(rand.NewSource(opts.Seed))

	// The virtual executor evaluates objective and constraints in one run.
	type payload struct {
		y float64
		c []float64
	}
	payloads := map[int]payload{} // keyed by launch ID
	nextID := 0
	ex := sched.NewVirtual(opts.Workers, func(x []float64) (float64, float64) {
		y := p.Objective(x)
		cs := make([]float64, len(constraints))
		for j, c := range constraints {
			cs[j] = c(x)
		}
		payloads[nextID] = payload{y, cs}
		nextID++
		cost := 1.0
		if p.Cost != nil {
			cost = p.Cost(x)
		}
		return y, cost
	})

	proposer := &core.ConstrainedProposer{Lambda: opts.Lambda, Penalize: opts.Algorithm != EasyBOA}

	init := stats.LatinHypercubeIn(rng, opts.InitPoints, p.Lo, p.Hi)

	res := &ConstrainedResult{BestY: math.Inf(-1)}
	var obsX [][]float64
	var obsY []float64
	obsC := make([][]float64, len(constraints)) // per-constraint columns
	anyFeasible := false
	bestViolation := math.Inf(1)

	// The constrained path trains one exact GP per output: constraint
	// surfaces are usually sharp near their boundary, which is exactly where
	// the feature expansion is weakest, so backend selection is not offered
	// here.
	train := func(y []float64, iters int) (surrogate.Surrogate, error) {
		m, err := surrogate.NewExact(obsX, y, p.Lo, p.Hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
			return gp.FitHyper(gp.SEARD{}, xs, ys, rng, &gp.FitOptions{Iters: iters, Restarts: 1})
		})
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	trainAll := func() (surrogate.Surrogate, []surrogate.Surrogate, error) {
		objM, err := train(obsY, opts.FitIters)
		if err != nil {
			return nil, nil, err
		}
		consM := make([]surrogate.Surrogate, len(constraints))
		for j := range constraints {
			if consM[j], err = train(obsC[j], opts.FitIters/2); err != nil {
				return nil, nil, err
			}
		}
		return objM, consM, nil
	}

	launched, completed := 0, 0
	for launched < len(init) && launched < opts.MaxEvals && ex.Idle() > 0 {
		if err := ex.Launch(init[launched]); err != nil {
			return nil, err
		}
		launched++
	}
	for completed < opts.MaxEvals {
		r, ok := ex.Wait()
		if !ok {
			return nil, errors.New("easybo: executor drained early")
		}
		completed++
		pl := payloads[r.ID]
		delete(payloads, r.ID)
		// The executor has classified the objective; the constraints are
		// outputs of the same run and fail it the same way.
		evalErr := r.Err
		feasible := true
		worst := math.Inf(-1)
		for _, cv := range pl.c {
			if evalErr == nil {
				evalErr = sched.ValueErr(cv)
			}
			if cv > 0 {
				feasible = false
			}
			if cv > worst {
				worst = cv
			}
		}
		if evalErr != nil {
			r.Y, feasible = math.NaN(), false
		}
		res.Evaluations = append(res.Evaluations, ConstrainedEvaluation{
			Evaluation:  Evaluation{X: r.X, Y: r.Y, Start: r.Start, End: r.End, Worker: r.Worker, Err: evalErr},
			Constraints: pl.c,
			Feasible:    feasible,
		})
		if r.End > res.Seconds {
			res.Seconds = r.End
		}
		if evalErr == nil {
			obsX = append(obsX, r.X)
			obsY = append(obsY, r.Y)
			for j := range constraints {
				obsC[j] = append(obsC[j], pl.c[j])
			}
			switch {
			case feasible && (!res.Found || r.Y > res.BestY):
				res.BestX, res.BestY, res.Found = r.X, r.Y, true
				anyFeasible = true
			case !res.Found && worst < bestViolation:
				res.BestX = r.X
				bestViolation = worst
			}
		}

		if launched >= opts.MaxEvals {
			continue
		}
		var next []float64
		if launched < len(init) {
			next = init[launched]
		} else {
			objM, consM, err := trainAll()
			if err != nil {
				return nil, err
			}
			next, err = proposer.ProposeConstrained(objM, consM, ex.Busy(), p.Lo, p.Hi, anyFeasible, rng)
			if err != nil {
				return nil, err
			}
		}
		if err := ex.Launch(next); err != nil {
			return nil, err
		}
		launched++
	}
	return res, nil
}
