// Package surrogate is the model layer of the optimization stack: a fitted
// posterior over the design box that the acquisition functions, proposers
// and batch selectors predict from, condition on busy points and draw
// approximate samples from (Surrogate, Predictor).
//
// Two backends implement it. The exact Gaussian process (Exact) is the
// paper's surrogate and the default: exact posteriors, O(n³) trainings,
// rank-append O(k·n²) extensions. The feature-space backend (FeatureModel)
// performs Bayesian linear regression on a random-Fourier-feature basis of
// the same SE-ARD kernel: O(n·m²) full fits, O(m²) rank-1 extensions and
// O(m²) predictions — independent of n — so ask/tell sessions with thousands
// of observations keep a flat per-suggestion cost. Both are fitted in one
// frame: inputs scaled from the box to the unit cube, outputs standardized
// over the training set; the frame puts every prediction and gradient back
// into raw units, or leaves it standardized for the acquisitions. On either
// backend a hallucinated view (WithPseudo) is the base model plus the Schur
// complement of its busy set: σ̂² = σ² − cᵀS⁻¹c, nothing copied or refitted.
//
// Readers share a model; Extend spends it. Any number of goroutines predict
// from one model, hallucinate views of it and draw from it at once, each
// through predictors of its own. Extend is its owner's operation: it hands
// the model's storage to the model it returns — the feature backend updates
// its factor in place, copying nothing — and the receiver answers ErrSpent
// from then on.
//
// What turns an observation history into a fitted posterior on a
// hyperparameter cadence — and picks, or escalates between, the backends —
// is core.ModelManager.
package surrogate

import (
	"errors"
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
// StandardizedPredictor. Readers share a model: predictors, WithPseudo and
// SampleRFF change nothing in it, which is what lets one fitted model serve
// concurrent readers. Extend spends it: the returned model takes over the
// receiver's storage, so Extend is not a concurrent operation, and the
// receiver, its predictors and its views are not to be used after it.
type Surrogate interface {
	// Predictor returns a raw-unit prediction context.
	Predictor() Predictor
	// StandardizedPredictor returns a prediction context in standardized
	// output units (zero mean, unit variance over the training set) — the
	// view acquisition functions that mix µ and σ must consume.
	StandardizedPredictor() Predictor
	// StandardizeY maps a raw objective value into standardized output
	// units (used to express the incumbent best for EI/PI).
	StandardizeY(y float64) float64
	// N returns the training-set size; a hallucinated view counts its busy
	// points too.
	N() int
	// Extend returns a surrogate whose training set is augmented with the
	// given raw observations at unchanged hyperparameters — the incremental
	// update between hyperparameter refits. It spends the receiver: Extend,
	// WithPseudo and SampleRFF on it return ErrSpent afterwards. The
	// observations are validated before anything is written, so a rejected
	// Extend leaves the receiver usable; no points return the receiver,
	// unspent. A hallucinated view returns ErrHallucinated.
	Extend(x [][]float64, y []float64) (Surrogate, error)
	// WithPseudo returns a hallucinated view: the posterior conditioned on
	// the busy points xp as pseudo-observations at their predictive means
	// (paper §III-C, Eq. 9). Its µ and ∇µ are the receiver's bits and its
	// deviation is σ̂² = σ² − cᵀS⁻¹c — c the posterior cross-covariance to
	// the busy points, S their posterior covariance plus the observation
	// noise — so σ̂ ≤ σ. The view shares the receiver's model and copies
	// none of it. On a view, WithPseudo returns one view over the union of
	// the busy points (bit for bit the receiver's base hallucinating them at
	// once), and Extend and SampleRFF return ErrHallucinated: a view
	// predicts and hallucinates, the base model does the rest. An empty xp
	// returns the receiver; N counts the busy points.
	WithPseudo(xp [][]float64) (Surrogate, error)
	// SampleRFF returns a fixed approximate posterior draw in raw units —
	// what a Thompson-sampling acquisition maximizes — using m random
	// Fourier features (the feature-space backend draws on its own basis
	// and ignores m). The returned function is safe for concurrent use. A
	// hallucinated view returns ErrHallucinated.
	SampleRFF(rng *rand.Rand, m int) (func(x []float64) float64, error)
}

// ErrSpent is what Extend, WithPseudo and SampleRFF return on a model that
// Extend has spent: its storage belongs to the model Extend returned.
var ErrSpent = errors.New("surrogate: the model was spent by Extend; use the model Extend returned")

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
