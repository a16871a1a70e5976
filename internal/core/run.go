package core

import (
	"context"
	"fmt"
	"math/rand"

	"easybo/internal/sched"
	"easybo/internal/stats"
)

// DefaultInitPoints is the paper's initial-design size (§IV): what every
// layer that lets a caller leave the design size unset asks NewMachine for.
const DefaultInitPoints = 20

// NewMachine is the one place an optimization run is put together: the
// Latin-hypercube initial design over cfg's box, the surrogate manager and
// the ask/tell machine, all on the run's rng and drawn from it in that
// order. cfg supplies the (validated) box, budget, proposer and failure
// policy; Init, Fit and Rng are filled in here. The manager is returned for
// callers that report on the surrogate.
//
// A caller that has already drawn the design — the first draws of the same
// stream, taken before it put a draw counter in front of the generator —
// passes it in cfg.Init; initPoints is then not consulted.
func NewMachine(rng *rand.Rand, initPoints int, mo ModelManagerOptions, cfg AskTellConfig) (*AskTell, *ModelManager, error) {
	if cfg.Init == nil {
		cfg.Init = stats.LatinHypercubeIn(rng, initPoints, cfg.Lo, cfg.Hi)
	}
	mm, err := NewModelManager(cfg.Lo, cfg.Hi, rng, mo)
	if err != nil {
		return nil, nil, err
	}
	cfg.Fit, cfg.Rng = mm.Fit, rng
	at, err := NewAskTell(cfg)
	if err != nil {
		return nil, nil, err
	}
	return at, mm, nil
}

// Run drives the machine on an executor until its budget is consumed: it
// is Algorithm 1 of the paper. Whenever a worker is idle the next
// suggestion is launched on it, and every completion — successful or
// failed — goes straight to ObserveResult, so the machine's pending set is
// exactly the points running on ex (the busy set X̂) and failures follow the
// machine's policy.
//
// Two rules shape a fill. It never crosses from the initial design into the
// acquisition phase: the first model-based proposal waits for a completion
// to fit on. And with barrier set, budgeted suggestions are only launched
// when every worker is idle — the synchronous batch algorithms are the same
// loop with that barrier — while a queued resubmission still re-runs at
// once, inside the batch that failed.
//
// Run requires a bounded machine (MaxEvals > 0) and returns after exactly
// MaxEvals outcomes, counting skipped failures, which consumed budget, but
// not resubmitted ones.
func (s *AskTell) Run(ctx context.Context, ex sched.Executor, barrier bool) error {
	if s.cfg.MaxEvals <= 0 {
		return fmt.Errorf("core: Run requires an evaluation budget")
	}
	for !s.Done() {
		if err := s.fill(ex, barrier); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: cancelled after %d of %d evaluations: %w", s.completed, s.cfg.MaxEvals, err)
		}
		r, ok := ex.Wait()
		if !ok {
			return fmt.Errorf("core: executor drained after %d of %d evaluations", s.completed, s.cfg.MaxEvals)
		}
		if err := s.ObserveResult(r); err != nil {
			return err
		}
	}
	return nil
}

// fill launches suggestions on the idle workers.
func (s *AskTell) fill(ex sched.Executor, barrier bool) error {
	launch := func() (bool, error) {
		p, ok, err := s.Suggest()
		if err != nil || !ok {
			return false, err // !ok: draining the tail of the final batch
		}
		if err := ex.Launch(p.X); err != nil {
			if p.Resubmit {
				return false, fmt.Errorf("core: resubmit of failed evaluation %d: %w", p.FailedID, err)
			}
			return false, err
		}
		return true, nil
	}
	for len(s.queue) > 0 && ex.Idle() > 0 {
		if _, err := launch(); err != nil {
			return err
		}
	}
	if barrier && ex.Idle() < ex.Workers() {
		return nil
	}
	for init := s.InInitialDesign(); ex.Idle() > 0 && s.InInitialDesign() == init; {
		if ok, err := launch(); err != nil || !ok {
			return err
		}
	}
	return nil
}
