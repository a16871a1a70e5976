package core

import (
	"fmt"

	"easybo/internal/sched"
)

// FailurePolicy decides what the machine does with a failed evaluation
// (sched.Result.Err != nil): a panicked, NaN, timed-out, or cancelled run.
type FailurePolicy int

const (
	// FailAbort kills the machine on the first failed evaluation (default).
	FailAbort FailurePolicy = iota
	// FailSkip drops the failed observation. The failure still consumes one
	// evaluation of the MaxEvals budget — it occupied a worker — but never
	// reaches the surrogate.
	FailSkip
	// FailResubmit queues the same point for the next Suggest. The retry
	// does not consume extra MaxEvals budget; runaway failure is bounded by
	// MaxFailures.
	FailResubmit
)

func (p FailurePolicy) String() string {
	switch p {
	case FailAbort:
		return "abort"
	case FailSkip:
		return "skip"
	case FailResubmit:
		return "resubmit"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// FailureAction is what a driver must do with one failed evaluation.
type FailureAction int

const (
	// ActionAbort: stop the run with the returned error.
	ActionAbort FailureAction = iota
	// ActionSkip: drop the observation; the failure consumed budget.
	ActionSkip
	// ActionResubmit: relaunch the same point; no extra budget consumed.
	ActionResubmit
)

// FailureHandler is the failure-policy bookkeeping: budget accounting and
// abort bounds. AskTell owns one for every run it drives; the DE baseline,
// whose loop belongs to optimize.DE, holds the only other.
type FailureHandler struct {
	policy   FailurePolicy
	max      int
	failures int
}

// NewFailureHandler resolves the policy's failure bound: maxFailures when
// positive, otherwise unlimited for FailSkip (the evaluation budget already
// bounds it) and `budget` for FailResubmit (so a point that always fails
// cannot loop forever).
func NewFailureHandler(policy FailurePolicy, maxFailures, budget int) *FailureHandler {
	if maxFailures <= 0 {
		if policy == FailResubmit {
			maxFailures = budget
		} else {
			maxFailures = int(^uint(0) >> 1) // unlimited
		}
	}
	return &FailureHandler{policy: policy, max: maxFailures}
}

// Handle records one failed evaluation and returns the action the driver
// must take. The error is non-nil exactly for ActionAbort.
func (h *FailureHandler) Handle(r sched.Result) (FailureAction, error) {
	h.failures++
	if h.policy == FailAbort {
		return ActionAbort, fmt.Errorf("evaluation %d failed on worker %d: %w", r.ID, r.Worker, r.Err)
	}
	if h.failures > h.max {
		return ActionAbort, fmt.Errorf("%d evaluation failures exceed the limit %d, last: %w", h.failures, h.max, r.Err)
	}
	if h.policy == FailSkip {
		return ActionSkip, nil
	}
	return ActionResubmit, nil
}

// Failures returns how many failed evaluations have been handled.
func (h *FailureHandler) Failures() int { return h.failures }
