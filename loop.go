package easybo

import (
	"errors"
	"fmt"
	"math/rand"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Loop is the ask-tell interface to EasyBO: Suggest returns the next point
// to evaluate, treating every point suggested but not yet observed as busy
// (hallucinated into the surrogate, paper §III-C); Observe feeds a finished
// evaluation back. This is Algorithm 1 with the scheduling inverted — the
// caller owns the workers.
//
// Loop is a thin adapter over the core ask/tell state machine (the same one
// that Optimize and OptimizeParallel run and the easybod service sessions
// host), configured without an evaluation budget: it keeps suggesting for as
// long as the caller keeps asking.
//
// A Loop is not safe for concurrent use; serialize Suggest/Observe calls.
type Loop struct {
	ip *objective.Problem // validated internal problem (bounds, cost)
	at *core.AskTell
}

// NewLoop validates the problem and prepares the initial design.
func NewLoop(p Problem, opts Options) (*Loop, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	// Loop reports failures through Forget, never through Observe, so the
	// machine's own failure policy is unreachable; skip is the benign
	// default.
	at, err := newMachine(ip, opts, core.AskTellConfig{Failure: core.FailSkip})
	if err != nil {
		return nil, err
	}
	return &Loop{ip: ip, at: at}, nil
}

// newMachine builds the EasyBO ask/tell machine behind Loop and
// OptimizeParallel; cfg carries the budget, failure policy and observers.
func newMachine(ip *objective.Problem, opts Options, cfg core.AskTellConfig) (*core.AskTell, error) {
	if opts.InitPoints <= 0 {
		opts.InitPoints = core.DefaultInitPoints
	}
	if cfg.MaxEvals > 0 {
		opts.InitPoints = min(opts.InitPoints, cfg.MaxEvals) // as Optimize does
	}
	switch opts.Algorithm {
	case "", EasyBO, EasyBOA:
	default:
		return nil, fmt.Errorf("easybo: Loop supports the EasyBO algorithms, not %q", opts.Algorithm)
	}
	backend, err := surrogate.ParseBackend(string(opts.Surrogate))
	if err != nil {
		return nil, fmt.Errorf("easybo: %w", err)
	}
	cfg.Lo, cfg.Hi = ip.Lo, ip.Hi
	cfg.Proposer = &core.Proposer{Lambda: opts.Lambda, Penalize: opts.Algorithm != EasyBOA}
	// Not enough observations for a surrogate yet (caller suggested more
	// than it observed): fall back to random points.
	cfg.MinFitObs, cfg.RandomFallback = 2, true
	at, _, err := core.NewMachine(rand.New(rand.NewSource(opts.Seed)), opts.InitPoints, core.ModelManagerOptions{
		RefitEvery: opts.RefitEvery,
		FitIters:   opts.FitIters,
		Backend:    backend,
		EscalateAt: opts.EscalateAt,
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("easybo: %w", err)
	}
	return at, nil
}

// Suggest returns the next point to evaluate. Until the initial design is
// exhausted it returns design points; afterwards it maximizes the EasyBO
// acquisition with all currently busy points hallucinated.
func (l *Loop) Suggest() ([]float64, error) {
	p, ok, err := l.at.Suggest()
	if err != nil {
		return nil, err
	}
	if !ok {
		// Unreachable for an unbounded machine; guard anyway.
		return nil, errors.New("easybo: no suggestion available")
	}
	return p.X, nil
}

// Observe records a finished evaluation. The point is matched against the
// busy set (exact coordinates) and removed from it; observing a point that
// was never suggested is allowed and simply enriches the surrogate. A NaN or
// ±Inf y is an error: report a failed evaluation through Forget.
func (l *Loop) Observe(x []float64, y float64) error {
	if len(x) != len(l.ip.Lo) {
		return errors.New("easybo: observation dimension mismatch")
	}
	if sched.ValueErr(y) != nil {
		return errors.New("easybo: NaN observation")
	}
	return l.at.Observe(x, y, nil)
}

// Forget removes a suggested-but-unobserved point from the busy set without
// recording an observation. Call it when an evaluation failed (crashed
// simulator, timeout) and will not be retried, so the point stops being
// hallucinated into the surrogate. It reports whether the point was pending.
func (l *Loop) Forget(x []float64) bool { return l.at.Forget(x) }

// Best returns the incumbent (nil, -Inf before any observation).
func (l *Loop) Best() ([]float64, float64) { return l.at.Best() }

// Observations returns the number of observed evaluations.
func (l *Loop) Observations() int { return l.at.Observations() }

// Pending returns the number of suggested-but-unobserved points.
func (l *Loop) Pending() int { return l.at.Pending() }
