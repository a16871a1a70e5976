// Package surrogate is the model-agnostic surrogate layer of the
// optimization stack. It unifies the two views the rest of the system has
// of "the model":
//
//   - the consumer view (acquisition functions, proposers, batch selectors)
//     — a posterior to predict from, hallucinate busy points into, and draw
//     approximate samples from;
//   - the producer view (the surrogate manager owned by every driver, Loop,
//     and serve session) — something that turns the observation history into
//     a fitted posterior on a hyperparameter cadence.
//
// Two backends implement the layer. The exact Gaussian process (Exact /
// ExactManager) is the paper's surrogate and the default: exact posteriors,
// O(n³) refits, rank-append O(k·n²) incremental extensions. The
// feature-space backend (FeatureModel / FeatureManager) performs Bayesian
// linear regression on a random-Fourier-feature basis of the same SE-ARD
// kernel: O(n·m²) full fits, O(m²) rank-1 incremental updates and O(m²)
// predictions — independent of n — so ask/tell sessions with thousands of
// observations keep a flat per-suggestion cost. core.ModelManager selects
// between them (and auto-escalates exact → feature-space past an
// observation threshold).
package surrogate

import (
	"fmt"
	"math/rand"
)

// Predictor is a reusable prediction context over a surrogate posterior: it
// owns whatever scratch repeated predictions need, so the acquisition
// maximizer's inner loop allocates nothing. A Predictor is for use by a
// single goroutine; create one per worker.
//
// Both backends pay for a deviation with a triangular solve, which is one
// floating-point dependency chain: it runs at add latency however wide the
// machine is. PredictBatch puts several points through the factor at once so
// their chains overlap, and the acquisition maximizer asks for all its
// predictions that way. The contract that makes this safe inside the
// replay-determinism boundary: a point's (mu, sigma) are the same bits
// whether it is predicted alone, first in a batch or last, and whatever else
// is in the batch. Implementations get this by construction — Predict is
// PredictBatch on a batch of one, and the batch kernel gives every point its
// own accumulators and the single-point operation order. The same contract
// lets a batch skip the solve of points its caller has no use for: the points
// left fill the solve groups and get the bits they would get anyway.
type Predictor interface {
	// Predict returns the posterior mean and standard deviation at x.
	Predict(x []float64) (mu, sigma float64)
	// PredictBatch writes the posterior mean and deviation at xs[i] into
	// mu[i] and sigma[i], for any number of points; mu and sigma are at
	// least as long as xs. It does not retain xs or keep.
	//
	// keep, when not nil, is asked about every point, in order, once its
	// mean is known and before its deviation is paid for, with an upper
	// bound on that deviation which costs nothing more: σ ≤ sigmaMax holds
	// in floating point. A point keep rejects gets a negative sigma, which no
	// deviation is; every other point gets the bits it gets with keep nil.
	// nil keeps every point.
	PredictBatch(xs [][]float64, mu, sigma []float64, keep func(mu, sigmaMax float64) bool)
	// PredictMean returns only the posterior mean (often cheaper).
	PredictMean(x []float64) float64
	// PredictGrad returns the posterior mean and deviation at x — the bits
	// PredictBatch returns there — and writes their gradients in x into dmu
	// and dsigma (len(x) each). It costs about two predictions: the
	// gradient of σ needs K⁻¹k (A⁻¹φ), one more triangular solve than σ
	// itself. Where the posterior is certain (σ ≤ 1e-12) dsigma is zero.
	// It is a method of the interface, not an optional one, so that a
	// Predictor wrapped for tracing or testing forwards it and the wrapped
	// run proposes the same points.
	PredictGrad(x, dmu, dsigma []float64) (mu, sigma float64)
}

// Surrogate is a fitted posterior over the design box. Inputs are raw
// coordinates; predictions are raw output units unless taken through
// StandardizedPredictor. Implementations are immutable: Extend and
// WithPseudo return new values and leave the receiver usable, which is what
// lets one fitted model serve concurrent readers.
type Surrogate interface {
	// Predict returns the posterior mean and deviation at x (raw units).
	Predict(x []float64) (mu, sigma float64)
	// PredictMean returns only the posterior mean at x (raw units).
	PredictMean(x []float64) float64
	// Predictor returns a raw-unit prediction context.
	Predictor() Predictor
	// StandardizedPredictor returns a prediction context in standardized
	// output units (zero mean, unit variance over the training set) — the
	// view acquisition functions that mix µ and σ must consume.
	StandardizedPredictor() Predictor
	// StandardizeY maps a raw objective value into standardized output
	// units (used to express the incumbent best for EI/PI).
	StandardizeY(y float64) float64
	// N returns the training-set size.
	N() int
	// Extend returns a new surrogate whose training set is augmented with
	// the given raw observations at unchanged hyperparameters — the
	// incremental update between hyperparameter refits.
	Extend(x [][]float64, y []float64) (Surrogate, error)
	// WithPseudo returns a hallucinated variant: the busy points xp are
	// absorbed as pseudo-observations at their current predictive means
	// (paper §III-C), leaving the predictive mean unchanged and shrinking
	// the deviation around them.
	WithPseudo(xp [][]float64) (Surrogate, error)
}

// Sampler is the optional posterior-draw capability (Thompson-sampling
// acquisitions). Both built-in backends implement it.
type Sampler interface {
	// SampleRFF returns a fixed approximate posterior draw using m random
	// Fourier features (backends with a native feature basis may use their
	// own basis size instead of m).
	SampleRFF(rng *rand.Rand, m int) (func(x []float64) float64, error)
}

// Manager is the producer view: it owns surrogate state across a run,
// refitting hyperparameters on its cadence and extending incrementally in
// between. A Manager's Fit is the core.Fitter every driver plugs in.
type Manager interface {
	// Fit returns a surrogate trained on the observations so far.
	// Observations are append-only across a run.
	Fit(x [][]float64, y []float64) (Surrogate, error)
	// Hyper returns the hyperparameters of the last optimization
	// (ok=false before the first fit), for reporting and snapshots.
	Hyper() (theta []float64, logNoise float64, ok bool)
	// State returns everything a later Fit reads from the manager besides
	// the observations, the rng and the fitted model itself.
	State() ManagerState
	// Restore puts the manager into a recorded State with no fitted model,
	// so that its next Fit trains from scratch — warm-started from the
	// recorded hyperparameters, exactly as a Fit that found the cadence due
	// would. It is how a recovered session resumes at a refit boundary
	// without replaying the fits before it.
	Restore(ManagerState) error
}

// ManagerState is a Manager's carried-over state: the hyperparameters of
// its last from-scratch training and the observation count it ran at. The
// fitted model is deliberately not part of it. Between trainings a model is
// grown incrementally, and a factor rebuilt from these numbers is not
// guaranteed to equal the grown one bit for bit; a from-scratch training
// reads only this state, the data and the rng, so that is the one point at
// which a manager can be put back exactly.
//
// LastHyperN changes exactly when Fit trains from scratch, which is how a
// caller holding the State from before a Fit can tell that it did. Theta
// aliases the manager's slice, which is replaced, never written, by a
// training; treat it as read-only.
type ManagerState struct {
	Theta      []float64 // nil before the first training
	LogNoise   float64
	LastHyperN int
}

// validate checks a state about to be restored into a manager whose kernel
// has numHyper hyperparameters.
func (st ManagerState) validate(numHyper int) error {
	switch {
	case st.Theta == nil && st.LastHyperN != 0:
		return fmt.Errorf("surrogate: manager state trained at n=%d has no hyperparameters", st.LastHyperN)
	case st.Theta != nil && len(st.Theta) != numHyper:
		return fmt.Errorf("surrogate: manager state has %d hyperparameters, the kernel takes %d", len(st.Theta), numHyper)
	case st.LastHyperN < 0:
		return fmt.Errorf("surrogate: manager state trained at n=%d", st.LastHyperN)
	}
	return nil
}

// Backend names a surrogate implementation, as selected through bo.Config,
// easybo.Options, serve session configs, and the -surrogate CLI flags.
type Backend string

const (
	// BackendAuto starts on the exact GP and escalates to the
	// feature-space backend once the observation count reaches the
	// escalation threshold. Behavior below the threshold is byte-identical
	// to BackendExact. This is the default.
	BackendAuto Backend = "auto"
	// BackendExact is the paper's exact Gaussian process.
	BackendExact Backend = "exact"
	// BackendFeatures is the scalable feature-space backend.
	BackendFeatures Backend = "features"
)

// DefaultEscalateAt is the observation count at which BackendAuto switches
// from the exact GP to the feature-space backend. Below it an exact refit
// is cheap enough that fidelity wins; past it the O(n³) refits and O(n²)
// predictions start to dominate the suggestion latency.
const DefaultEscalateAt = 500

// DefaultFeatures is the feature-space backend's default basis size m.
const DefaultFeatures = 256

// The paper's surrogate cadence (§IV): hyperparameters are re-optimized
// every DefaultRefitEvery observations, DefaultFitIters Adam iterations a
// time. Every layer that lets a caller leave these unset reads them here.
const (
	DefaultRefitEvery = 5
	DefaultFitIters   = 40
)

// ParseBackend validates a backend name; the empty string selects
// BackendAuto.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "":
		return BackendAuto, nil
	case BackendAuto, BackendExact, BackendFeatures:
		return Backend(s), nil
	default:
		return "", fmt.Errorf("surrogate: unknown backend %q (want auto, exact, or features)", s)
	}
}
