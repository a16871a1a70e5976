package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Fitter refreshes the surrogate from all observations so far. Implementors
// decide how often to re-optimize hyperparameters versus performing a cheap
// incremental refit, and which surrogate backend serves the posterior
// (ModelManager.Fit is the canonical implementation).
type Fitter func(x [][]float64, y []float64) (surrogate.Surrogate, error)

// PointProposer picks the machine's next model-based query point on the
// refreshed surrogate, given the busy set and the design box. *Proposer is
// EasyBO's; the bo package adapts its batch selectors to it.
type PointProposer interface {
	Propose(m surrogate.Surrogate, busy [][]float64, lo, hi []float64, rng *rand.Rand) (x []float64, w float64, err error)
}

// Proposal is one suggestion issued by the ask/tell state machine: a point
// the caller must evaluate and eventually feed back through Observe.
type Proposal struct {
	// ID is the suggestion sequence number, unique within one AskTell.
	ID int
	// X is the point to evaluate (the caller owns this copy).
	X []float64
	// Init reports whether the point came from the initial design.
	Init bool
	// Resubmit reports whether the point is a re-issue of a failed
	// evaluation under FailResubmit; FailedID is then the failed Result's ID.
	Resubmit bool
	FailedID int
}

// AskTellConfig configures an AskTell state machine.
type AskTellConfig struct {
	// MaxEvals bounds the total number of suggestions whose outcome counts
	// against the budget (initial design included). 0 means unbounded — the
	// machine keeps suggesting for as long as the caller keeps asking.
	MaxEvals int
	Init     [][]float64   // initial design points (raw coordinates; may be empty)
	Lo, Hi   []float64     // design box
	Fit      Fitter        // surrogate refresher (required)
	Proposer PointProposer // acquisition engine (required)
	Rng      *rand.Rand    // drives κ sampling and the inner maximizer

	OnResult func(sched.Result) // observes every successful completion in order (optional)
	// Failure selects the policy for failed evaluations (default FailAbort).
	Failure     FailurePolicy
	MaxFailures int                // bound on tolerated failures (0 = policy default)
	OnFailure   func(sched.Result) // observes every failed evaluation (optional)

	// MinFitObs is the minimum number of observations required before the
	// surrogate is fit (default 1). Only consulted when RandomFallback is
	// set: below the threshold (and past the initial design) Suggest returns
	// uniform random points instead of erroring, so a caller that asks
	// faster than it tells is never starved. A threshold the run can never
	// reach makes the machine plain random search.
	MinFitObs      int
	RandomFallback bool
}

type pendingPoint struct {
	id int
	x  []float64
}

type resubmitPoint struct {
	x        []float64
	failedID int
}

// AskTell is the optimization loop of Algorithm 1 with control inverted: the
// caller owns the workers (goroutines, an executor, or remote simulators
// behind an HTTP API) and drives the machine through Suggest and Observe.
//
//   - Suggest returns the next point to evaluate. Every point suggested but
//     not yet observed stays in the pending set and is hallucinated into the
//     surrogate (paper §III-C) when the Proposer penalizes.
//   - Observe feeds one finished evaluation back — successful or failed, in
//     any order. Failures follow the configured FailurePolicy: they abort
//     the machine, consume budget silently, or queue the point for
//     re-suggestion.
//
// Run drives the machine on an executor; the public easybo.Loop and the
// serve sessions hand Suggest and Observe to their callers. An AskTell is
// not safe for concurrent use; serialize calls (the serve package does so
// with a per-session actor goroutine).
type AskTell struct {
	cfg AskTellConfig
	fh  *FailureHandler

	launched  int // budgeted suggestions issued (resubmits excluded)
	completed int // successful + skipped-failure outcomes absorbed
	nextID    int // proposal sequence
	tells     int // Observe calls, used to synthesize Result IDs

	obsX    [][]float64
	obsY    []float64
	pending []pendingPoint
	queue   []resubmitPoint

	bestX []float64
	bestY float64

	err error // sticky abort error; the machine is dead once set
}

// NewAskTell validates the configuration and returns a fresh state machine.
func NewAskTell(cfg AskTellConfig) (*AskTell, error) {
	switch {
	case cfg.Fit == nil:
		return nil, errors.New("core: AskTell requires a Fitter")
	case cfg.Proposer == nil:
		return nil, errors.New("core: AskTell requires a Proposer")
	case cfg.Rng == nil:
		return nil, errors.New("core: AskTell requires an rng")
	case cfg.MaxEvals > 0 && cfg.MaxEvals < len(cfg.Init):
		return nil, fmt.Errorf("core: MaxEvals %d smaller than initial design %d", cfg.MaxEvals, len(cfg.Init))
	case len(cfg.Lo) == 0 || len(cfg.Lo) != len(cfg.Hi):
		return nil, fmt.Errorf("core: invalid design box (lo %d, hi %d)", len(cfg.Lo), len(cfg.Hi))
	}
	if cfg.MinFitObs <= 0 {
		cfg.MinFitObs = 1
	}
	budget := cfg.MaxEvals
	if budget <= 0 {
		budget = int(^uint(0) >> 1)
	}
	return &AskTell{
		cfg:   cfg,
		fh:    NewFailureHandler(cfg.Failure, cfg.MaxFailures, budget),
		bestY: math.Inf(-1),
	}, nil
}

// issue registers x as pending and returns its proposal. Resubmitted points
// do not consume budget.
func (s *AskTell) issue(x []float64, init, resubmit bool, failedID int) Proposal {
	xc := append([]float64(nil), x...)
	p := Proposal{ID: s.nextID, X: append([]float64(nil), x...), Init: init, Resubmit: resubmit, FailedID: failedID}
	s.pending = append(s.pending, pendingPoint{id: s.nextID, x: xc})
	s.nextID++
	if !resubmit {
		s.launched++
	}
	return p
}

// Suggest returns the next point to evaluate. ok is false when no suggestion
// is available right now: the budget of MaxEvals suggestions is exhausted
// and no failed point awaits resubmission (the caller should keep Observing
// until Done). The order of precedence is exactly Algorithm 1's: queued
// resubmissions first, then the initial design, then the acquisition
// maximizer on the refreshed surrogate with all pending points hallucinated.
func (s *AskTell) Suggest() (p Proposal, ok bool, err error) {
	return s.next(nil, true)
}

// Reissue takes the step Suggest took when it issued x, without deriving x
// again: the machine ends up holding the same proposal, budget and pending
// set, but the acquisition is not maximized and no random number is drawn.
// It is for rebuilding a machine from a record of its own proposals. Where
// the machine can tell what the next point must be without a model — a
// queued resubmission, an initial-design point — x must be that point bit
// for bit. fit says whether a model-based step still refreshes the
// surrogate, as Suggest did before proposing, so that the manager behind
// Fit goes through the states it went through then; without it the manager
// is not touched at all.
func (s *AskTell) Reissue(x []float64, fit bool) (Proposal, error) {
	if len(x) != len(s.cfg.Lo) {
		return Proposal{}, fmt.Errorf("core: recorded proposal has dimension %d, want %d", len(x), len(s.cfg.Lo))
	}
	p, ok, err := s.next(x, fit)
	if err == nil && !ok {
		err = errors.New("core: a proposal is recorded where the budget was already exhausted")
	}
	return p, err
}

// next is Suggest (rec == nil) and Reissue (rec is the recorded point).
func (s *AskTell) next(rec []float64, fit bool) (p Proposal, ok bool, err error) {
	if s.err != nil {
		return Proposal{}, false, s.err
	}
	if len(s.queue) > 0 {
		r := s.queue[0]
		if err := checkRecorded(rec, r.x); err != nil {
			return Proposal{}, false, err
		}
		s.queue = s.queue[1:]
		return s.issue(r.x, false, true, r.failedID), true, nil
	}
	if s.cfg.MaxEvals > 0 && s.launched >= s.cfg.MaxEvals {
		return Proposal{}, false, nil
	}
	if s.launched < len(s.cfg.Init) {
		x := s.cfg.Init[s.launched]
		if err := checkRecorded(rec, x); err != nil {
			return Proposal{}, false, err
		}
		return s.issue(x, true, false, 0), true, nil
	}
	if s.cfg.RandomFallback && len(s.obsY) < s.cfg.MinFitObs {
		// Caller suggested more than it observed: uniform random draw.
		x := rec
		if x == nil {
			x = make([]float64, len(s.cfg.Lo))
			for j := range x {
				x[j] = s.cfg.Lo[j] + s.cfg.Rng.Float64()*(s.cfg.Hi[j]-s.cfg.Lo[j])
			}
		}
		return s.issue(x, false, false, 0), true, nil
	}
	if len(s.obsY) == 0 {
		return Proposal{}, false, fmt.Errorf("core: no successful observation after %d launches; cannot fit a surrogate", s.launched)
	}
	x := rec
	if rec == nil || fit {
		m, err := s.cfg.Fit(s.obsX, s.obsY)
		if err != nil {
			return Proposal{}, false, fmt.Errorf("core: surrogate refresh: %w", err)
		}
		if rec == nil {
			x, _, err = s.cfg.Proposer.Propose(m, s.PendingPoints(), s.cfg.Lo, s.cfg.Hi, s.cfg.Rng)
			if err != nil {
				return Proposal{}, false, err
			}
		}
	}
	return s.issue(x, false, false, 0), true, nil
}

// checkRecorded compares a recorded proposal with the point the machine
// issues at that step without consulting a model (rec == nil: nothing was
// recorded, the machine is suggesting).
func checkRecorded(rec, x []float64) error {
	if rec != nil && !EqualPoints(rec, x) {
		return fmt.Errorf("core: recorded proposal %v where the machine issues %v", rec, x)
	}
	return nil
}

// ObserveResult feeds one finished evaluation back into the machine. The
// point is matched against the pending set by coordinates and removed;
// observing a point that was never suggested is allowed and simply enriches
// the surrogate. A failed result (Err != nil) follows the failure policy:
// ActionAbort returns the abort error and kills the machine, ActionSkip
// consumes one budget slot, ActionResubmit queues the point so the next
// Suggest re-issues it without consuming extra budget.
func (s *AskTell) ObserveResult(r sched.Result) error {
	if s.err != nil {
		return s.err
	}
	s.tells++
	s.forget(r.X)
	if r.Err != nil {
		if s.cfg.OnFailure != nil {
			s.cfg.OnFailure(r)
		}
		action, ferr := s.fh.Handle(r)
		switch action {
		case ActionSkip:
			s.completed++ // the failure consumed one budget slot
		case ActionResubmit:
			s.queue = append(s.queue, resubmitPoint{x: append([]float64(nil), r.X...), failedID: r.ID})
		default: // ActionAbort
			s.err = fmt.Errorf("core: %w", ferr)
			return s.err
		}
		return nil
	}
	s.completed++
	xc := append([]float64(nil), r.X...)
	s.obsX = append(s.obsX, xc)
	s.obsY = append(s.obsY, r.Y)
	if r.Y > s.bestY {
		s.bestY = r.Y
		s.bestX = xc
	}
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(r)
	}
	return nil
}

// Observe is the plain ask/tell form of ObserveResult for callers without an
// executor: evalErr non-nil (or a non-finite y) marks the evaluation failed.
func (s *AskTell) Observe(x []float64, y float64, evalErr error) error {
	if evalErr == nil {
		evalErr = sched.ValueErr(y)
	}
	return s.ObserveResult(sched.Result{ID: s.tells, X: x, Y: y, Err: evalErr, Attempts: 1})
}

// Forget removes a suggested-but-unobserved point from the pending set
// without recording an outcome, so it stops being hallucinated. It reports
// whether the point was pending.
func (s *AskTell) Forget(x []float64) bool { return s.forget(x) }

func (s *AskTell) forget(x []float64) bool {
	for i, p := range s.pending {
		if EqualPoints(p.x, x) {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Done reports whether the budget is exhausted: MaxEvals outcomes absorbed.
// An unbounded machine (MaxEvals 0) is never done.
func (s *AskTell) Done() bool {
	return s.cfg.MaxEvals > 0 && s.completed >= s.cfg.MaxEvals
}

// Err returns the sticky abort error, if the machine has died.
func (s *AskTell) Err() error { return s.err }

// InInitialDesign reports whether the next budgeted suggestion still comes
// from the initial design.
func (s *AskTell) InInitialDesign() bool { return s.launched < len(s.cfg.Init) }

// Launched returns the number of budgeted suggestions issued so far.
func (s *AskTell) Launched() int { return s.launched }

// Completed returns the number of budget-consuming outcomes absorbed so far
// (successes plus skipped failures; resubmitted failures excluded).
func (s *AskTell) Completed() int { return s.completed }

// Observations returns the number of successful observations absorbed.
func (s *AskTell) Observations() int { return len(s.obsY) }

// Failures returns how many failed evaluations have been handled.
func (s *AskTell) Failures() int { return s.fh.Failures() }

// Pending returns the number of suggested-but-unobserved points.
func (s *AskTell) Pending() int { return len(s.pending) + len(s.queue) }

// PendingPoints returns the suggested-but-unobserved points in suggestion
// order — the busy set X̂ of paper §III-C. The slices alias internal state;
// callers must not mutate them.
func (s *AskTell) PendingPoints() [][]float64 {
	out := make([][]float64, len(s.pending))
	for i, p := range s.pending {
		out[i] = p.x
	}
	return out
}

// Best returns the incumbent (nil, -Inf before any successful observation).
func (s *AskTell) Best() ([]float64, float64) { return s.bestX, s.bestY }

// EqualPoints compares coordinate vectors bit-for-bit: matching a tell to
// a pending proposal, or a replayed ask to the recorded one, means "the same
// emitted value", so identical bits is the right relation (encoding/json
// round-trips float64 exactly, and NaN, which breaks ==, still matches
// itself).
func EqualPoints(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
