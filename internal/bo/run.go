package bo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/optimize"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Run executes one optimization run of the configured algorithm on the
// problem, entirely in virtual time, and returns its history. Runs are
// deterministic given Config.Seed.
//
// Every algorithm but DE is core.AskTell driven by AskTell.Run on the
// virtual executor; the families differ in the proposer they plug in and in
// when a batch is dispatched. The asynchronous pair proposes with
// core.Proposer and launches whenever a worker is idle. The sequential and
// synchronous algorithms hand a batchSelector's picks out through
// batchProposer and launch behind a barrier. Random search is a machine with
// no design and a fit threshold it never reaches, so every suggestion is the
// machine's own uniform draw.
func Run(p *objective.Problem, cfg Config) (*History, error) {
	if p == nil {
		return nil, errors.New("bo: nil problem")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	switch cfg.Algo {
	case AlgoDE:
		return runDE(p, cfg, rng)
	case AlgoRandom:
		cfg.InitPoints = 0
		return run(p, cfg, rng, core.AskTellConfig{
			Proposer: &core.Proposer{}, MinFitObs: math.MaxInt, RandomFallback: true,
		})
	case AlgoEasyBOA, AlgoEasyBO:
		return run(p, cfg, rng, core.AskTellConfig{Proposer: &core.Proposer{
			Lambda:   cfg.Lambda,
			Penalize: cfg.Algo == AlgoEasyBO,
			MaxOpts:  cfg.acqOpts(),
		}})
	case AlgoEI, AlgoLCB, AlgoEasyBOSeq, AlgoPortfolio:
		cfg.BatchSize = 1
	}
	sel, err := cfg.selectorFor()
	if err != nil {
		return nil, err
	}
	return run(p, cfg, rng, core.AskTellConfig{Proposer: &batchProposer{sel: sel, b: cfg.BatchSize, maxEvals: cfg.MaxEvals}})
}

// run builds the machine ac describes on the run's rng and drives it on B
// virtual workers to the end of the budget. Failed evaluations (NaN
// objective values) are handled per cfg.Failure and recorded in
// History.Failed; only successful completions reach the surrogate and
// History.Records.
func run(p *objective.Problem, cfg Config, rng *rand.Rand, ac core.AskTellConfig) (*History, error) {
	var recs, failed []sched.Result
	ac.MaxEvals = cfg.MaxEvals
	ac.Lo, ac.Hi = p.Lo, p.Hi
	ac.Failure, ac.MaxFailures = cfg.Failure, cfg.MaxFailures
	ac.OnResult = func(r sched.Result) { recs = append(recs, r) }
	ac.OnFailure = func(r sched.Result) { failed = append(failed, r) }
	at, _, err := core.NewMachine(rng, cfg.InitPoints, core.ModelManagerOptions{
		RefitEvery: cfg.RefitEvery,
		FitIters:   cfg.FitIters,
		Kernel:     cfg.Kernel,
		Backend:    cfg.Surrogate,
		EscalateAt: cfg.EscalateAt,
		Features:   cfg.Features,
	}, ac)
	if err != nil {
		return nil, err
	}
	// Synchronous is exactly "selects whole batches": those algorithms
	// dispatch behind a barrier, and their adapter reads the machine.
	bp, barrier := ac.Proposer.(*batchProposer)
	if barrier {
		bp.at = at
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := at.Run(ctx, sched.NewVirtual(cfg.BatchSize, p.EvalWithCost), barrier); err != nil {
		return nil, err
	}
	return newHistory(cfg.Algo, cfg.BatchSize, recs, failed), nil
}

// batchProposer adapts a batchSelector to the machine's one-point-at-a-time
// proposer seam. Behind Run's barrier every Suggest of one batch sees the
// same observations, so the first selects the whole batch — clipped to the
// remaining budget, incumbent from the machine — and the rest hand its
// picks out in order.
type batchProposer struct {
	sel         batchSelector
	b, maxEvals int
	at          *core.AskTell
	picks       [][]float64
}

func (bp *batchProposer) Propose(m surrogate.Surrogate, _ [][]float64, lo, hi []float64, rng *rand.Rand) ([]float64, float64, error) {
	if len(bp.picks) == 0 {
		_, best := bp.at.Best()
		b := min(bp.b, bp.maxEvals-bp.at.Launched())
		picks, err := bp.sel.SelectBatch(m, b, lo, hi, best, rng)
		if err != nil {
			return nil, 0, err
		}
		bp.picks = picks
	}
	x := bp.picks[0]
	bp.picks = bp.picks[1:]
	return x, 0, nil
}

func (c Config) acqOpts() optimize.MaximizeOptions {
	o := optimize.MaximizeOptions{Candidates: c.AcqCandidates, Refine: c.AcqRefine}
	if o.Refine == 0 {
		o.Refine = 2
	}
	return o
}

// selectorFor builds the batch selector for the sync/sequential algorithms.
func (c Config) selectorFor() (batchSelector, error) {
	opts := c.acqOpts()
	switch c.Algo {
	case AlgoEI:
		return eiSelector{opts: opts}, nil
	case AlgoLCB:
		return lcbSelector{opts: opts}, nil
	case AlgoPBO:
		return pboSelector{opts: opts}, nil
	case AlgoPHCBO:
		return newPHCBOSelector(opts), nil
	case AlgoEasyBOSeq, AlgoEasyBOS:
		return easySelector{&core.Proposer{Lambda: c.Lambda, Penalize: false, MaxOpts: opts}}, nil
	case AlgoEasyBOSP:
		return easySelector{&core.Proposer{Lambda: c.Lambda, Penalize: true, MaxOpts: opts}}, nil
	case AlgoTS:
		return tsSelector{opts: opts}, nil
	case AlgoPortfolio:
		return newPortfolioSelector(opts), nil
	default:
		return nil, fmt.Errorf("bo: unknown algorithm %q", c.Algo)
	}
}

// runDE runs the paper's differential-evolution baseline. DE evaluates
// sequentially on one worker, exactly as the baseline's huge time columns
// in Tables I/II assume. NaN objective values follow the shared failure
// contract: they abort under FailAbort, and otherwise rank last in DE's
// selection without ever entering Records (DE cannot resubmit — the same
// point would fail identically — so FailResubmit degrades to FailSkip).
func runDE(p *objective.Problem, cfg Config, rng *rand.Rand) (*History, error) {
	fh := core.NewFailureHandler(cfg.Failure, cfg.MaxFailures, cfg.MaxEvals)
	var recs, failed []sched.Result
	now := 0.0
	var abortErr error
	wrapped := func(x []float64) float64 {
		if abortErr != nil {
			return math.Inf(-1) // aborted: starve DE without touching the objective
		}
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			abortErr = fmt.Errorf("bo: cancelled after %d of %d evaluations: %w",
				len(recs)+len(failed), cfg.MaxEvals, cfg.Ctx.Err())
			return math.Inf(-1)
		}
		y := p.Eval(x)
		cost := 1.0
		if p.Cost != nil {
			cost = p.Cost(x)
		}
		r := sched.Result{
			ID: len(recs) + len(failed), X: append([]float64(nil), x...), Y: y,
			Start: now, End: now + cost, Attempts: 1,
		}
		now += cost
		if r.Err = sched.ValueErr(y); r.Err != nil {
			r.Y = math.NaN()
			failed = append(failed, r)
			if action, ferr := fh.Handle(r); action == core.ActionAbort {
				abortErr = fmt.Errorf("bo: %w", ferr)
			}
			return math.Inf(-1) // failed designs rank last in selection
		}
		recs = append(recs, r)
		return y
	}
	optimize.DE(wrapped, p.Lo, p.Hi, rng,
		optimize.DEOptions{PopSize: cfg.DEPop, MaxEvals: cfg.MaxEvals})
	if abortErr != nil {
		return nil, abortErr
	}
	return newHistory(AlgoDE, 1, recs, failed), nil
}
