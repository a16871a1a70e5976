// Package serve turns the ask/tell optimization core into a long-lived
// service: many concurrent optimization sessions, each an independent
// EasyBO run driven by external workers over a JSON protocol (cmd/easybod
// exposes it over HTTP).
//
// # Concurrency model
//
// Sessions live in a registry — one mutex-guarded map from id to session,
// held for a single map operation per request. Each session is an actor: one
// goroutine owns the session's entire mutable state (the AskTell machine,
// the GP surrogate, the event log) and processes requests from a mailbox
// channel serially. GP state therefore never needs locking, and two
// requests to the same session can never interleave mid-fit; requests to
// different sessions run fully in parallel.
//
// What the actor does per request is O(1) in the session's history. A tell
// is acknowledged with a TellAck, not the history. The routes that do carry
// history — status, snapshot, handoff, compaction — take a capacity-capped
// prefix of the session's append-only record and event arrays on the actor
// and encode it on their own goroutine; the arrays' elements are never
// written after they are appended, which is what makes that sharing safe.
//
// # Restart safety
//
// A session snapshots to JSON as its configuration plus the full ask/tell
// event log (which encodes the observation history and the pending set).
// Because a session is deterministic given its seed and the tell sequence,
// restoring replays the log against a fresh machine and reaches the exact
// same state. The replay resumes the surrogate at the log's last checkpoint
// (an ask that retrained hyperparameters records the state it started from)
// and re-derives only the proposals still in flight; replay from the first
// event, every ask verified against the recorded proposal, is what a log
// without checkpoints gets, what a failed checkpoint falls back to, and
// what Audit runs. Only a divergence on that full replay aborts a restore.
// See session.replay.
package serve

import (
	"errors"
	"fmt"

	"easybo/internal/acq"
	"easybo/internal/core"
	"easybo/internal/surrogate"
)

// Sentinel service errors. The HTTP layer maps them to status codes.
var (
	// ErrSessionClosed marks requests to a deleted or shut-down session.
	ErrSessionClosed = errors.New("serve: session closed")
	// ErrUnknownSession marks requests for an id the store does not hold.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrDuplicateSession marks creation of an id the store already holds.
	ErrDuplicateSession = errors.New("serve: session id already exists")
	// ErrUnknownProposal marks a tell for a proposal id that is not pending.
	ErrUnknownProposal = errors.New("serve: unknown or already-told proposal")
	// ErrSnapshotDiverged marks a snapshot whose replay did not reproduce
	// the recorded proposals (corrupted snapshot or mismatched binary).
	ErrSnapshotDiverged = errors.New("serve: snapshot replay diverged from recorded history")
	// ErrSessionQuarantined marks requests for a session whose persisted
	// log failed integrity or replay verification at boot; it is never
	// silently resurrected.
	ErrSessionQuarantined = errors.New("serve: session quarantined")
	// ErrNotReady marks session requests made before boot recovery
	// finished replaying the durable logs.
	ErrNotReady = errors.New("serve: not ready")
	// ErrStaleEpoch marks a mutating request to a session whose ownership
	// is moving (or has moved) to another cluster node: this copy is
	// fenced, and accepting the write would diverge from the new owner.
	ErrStaleEpoch = errors.New("serve: stale ownership epoch")
)

// HeldElsewhereError is a refusal to take a session another node still
// holds: Adopt's ownership guard did not clear the node named by the last
// durable fence, or the store found the session's write lock held by a
// live process (the kernel's answer to "is the owner actually dead?",
// immune to failure-detector flaps). The caller routes traffic to Owner
// instead of forking the session.
type HeldElsewhereError struct {
	ID    string
	Owner string
}

func (e *HeldElsewhereError) Error() string {
	return fmt.Sprintf("serve: session %q is held by node %q", e.ID, e.Owner)
}

// SessionConfig declares one optimization session. The daemon never
// evaluates the objective itself — bounds are all it needs; external
// workers evaluate proposals and tell the results back.
type SessionConfig struct {
	Name string `json:"name,omitempty"` // free-form label

	Lo []float64 `json:"lo"` // per-dimension lower bounds
	Hi []float64 `json:"hi"` // per-dimension upper bounds

	// Algorithm is "easybo" (asynchronous batch + hallucination
	// penalization, the default) or "easybo-a" (no penalization).
	Algorithm  string  `json:"algorithm,omitempty"`
	InitPoints int     `json:"init_points,omitempty"` // Latin-hypercube design size (default 20)
	MaxEvals   int     `json:"max_evals,omitempty"`   // total budget incl. init; 0 = unbounded
	Seed       int64   `json:"seed,omitempty"`        // deterministic seed
	Lambda     float64 `json:"lambda,omitempty"`      // κ upper bound of Eq. (8) (default 6)

	RefitEvery int `json:"refit_every,omitempty"` // hyperparameter refit cadence (default 5)
	FitIters   int `json:"fit_iters,omitempty"`   // Adam iterations per hyperfit (default 40)

	// Surrogate selects the model backend: "auto" (exact GP below
	// EscalateAt observations, feature-space past it — the default),
	// "exact", or "features". Because the backend is part of the config it
	// rides along in snapshots, so a restored session replays on the exact
	// same backend schedule bit for bit.
	Surrogate string `json:"surrogate,omitempty"`
	// EscalateAt is the auto backend's escalation threshold in
	// observations (default 500).
	EscalateAt int `json:"escalate_at,omitempty"`

	// Failure is the per-session policy for tells that carry an error:
	// "abort" (default), "skip", or "resubmit". It plumbs straight into
	// core.FailureHandler, the same bookkeeping the in-process drivers use.
	Failure     string `json:"failure,omitempty"`
	MaxFailures int    `json:"max_failures,omitempty"` // bound on tolerated failures (0 = policy default)

	// Testbench is the opaque identity of the simulation this session's
	// workers run. Sessions declaring the same testbench participate in the
	// cross-session evaluation cache: an ask for a point another session
	// already evaluated (or is evaluating) under the same testbench and
	// fidelity carries the shared result instead of a fresh simulation.
	// Empty opts the session out of the cache entirely — the daemon cannot
	// know two unlabeled objectives are the same function.
	Testbench string `json:"testbench,omitempty"`
	// Fidelity distinguishes evaluation tiers of one testbench (tolerance,
	// corner set, post-layout vs schematic). Results never dedupe across
	// fidelities: a coarse sim is not a substitute for a fine one.
	Fidelity string `json:"fidelity,omitempty"`
}

// Ceilings on what one session config may ask of the daemon, far above
// every value a test, example, command default or benchmark workload uses
// (the serve-wal benchmark's 100 000-point design over 4 dimensions, 40 Adam
// steps a refit, a dozen dimensions) and far below what would exhaust the
// process or wedge the session: the design — InitPoints × d coordinates —
// is allocated at create, every model ask sweeps max(20·d, 100) candidates
// of d coordinates, and every refit runs FitIters Adam steps on the session's
// actor, again serially when recovery replays it.
const (
	maxDesignCoords = 1 << 21 // InitPoints × len(Lo), after MaxEvals caps InitPoints
	maxDim          = 64      // len(Lo)
	maxFitIters     = 1000
)

// normalize validates the config and fills defaults in place.
func (c *SessionConfig) normalize() error {
	if len(c.Lo) == 0 || len(c.Lo) != len(c.Hi) {
		return fmt.Errorf("serve: invalid design box (lo %d, hi %d)", len(c.Lo), len(c.Hi))
	}
	if len(c.Lo) > maxDim {
		return fmt.Errorf("serve: %d dimensions, at most %d", len(c.Lo), maxDim)
	}
	for i := range c.Lo {
		if !(c.Lo[i] < c.Hi[i]) {
			return fmt.Errorf("serve: bounds inverted or degenerate at dimension %d: [%g, %g]", i, c.Lo[i], c.Hi[i])
		}
	}
	switch c.Algorithm {
	case "":
		c.Algorithm = "easybo"
	case "easybo", "easybo-a":
	default:
		return fmt.Errorf("serve: unknown algorithm %q (want easybo or easybo-a)", c.Algorithm)
	}
	switch c.Failure {
	case "":
		c.Failure = "abort"
	case "abort", "skip", "resubmit":
	default:
		return fmt.Errorf("serve: unknown failure policy %q (want abort, skip, or resubmit)", c.Failure)
	}
	if c.InitPoints <= 0 {
		c.InitPoints = core.DefaultInitPoints
	}
	if c.MaxEvals > 0 && c.InitPoints > c.MaxEvals {
		c.InitPoints = c.MaxEvals
	}
	if c.InitPoints > maxDesignCoords/len(c.Lo) {
		return fmt.Errorf("serve: init_points %d over %d dimensions exceeds %d design coordinates", c.InitPoints, len(c.Lo), maxDesignCoords)
	}
	if c.Lambda <= 0 {
		c.Lambda = acq.DefaultLambda
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = surrogate.DefaultRefitEvery
	}
	if c.FitIters <= 0 {
		c.FitIters = surrogate.DefaultFitIters
	}
	if c.FitIters > maxFitIters {
		return fmt.Errorf("serve: fit_iters %d exceeds %d", c.FitIters, maxFitIters)
	}
	backend, err := surrogate.ParseBackend(c.Surrogate)
	if err != nil {
		return err
	}
	c.Surrogate = string(backend)
	if c.EscalateAt < 0 {
		c.EscalateAt = 0
	}
	if c.MaxFailures < 0 {
		c.MaxFailures = 0
	}
	const maxLabel = 200
	if len(c.Testbench) > maxLabel {
		return fmt.Errorf("serve: testbench label exceeds %d bytes", maxLabel)
	}
	if len(c.Fidelity) > maxLabel {
		return fmt.Errorf("serve: fidelity label exceeds %d bytes", maxLabel)
	}
	return nil
}
