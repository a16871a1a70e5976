package core

import (
	"fmt"
	"math/rand"
	"sort"

	"easybo/internal/gp"
	"easybo/internal/surrogate"
)

// ModelManagerOptions tunes a ModelManager. Zero values select the paper's
// defaults (surrogate.DefaultRefitEvery, surrogate.DefaultFitIters, SE-ARD
// kernel) on the auto backend.
type ModelManagerOptions struct {
	RefitEvery int       // hyperparameter re-optimization cadence in observations (exact backend)
	FitIters   int       // Adam iterations per hyperfit
	Kernel     gp.Kernel // surrogate kernel (nil = SE-ARD; exact backend only)

	// Backend selects the surrogate implementation (default
	// surrogate.BackendAuto: exact below EscalateAt, feature-space past it).
	Backend surrogate.Backend
	// EscalateAt is the observation count at which the auto backend
	// escalates exact → feature-space (default surrogate.DefaultEscalateAt).
	// Below it, auto behaves byte-identically to the exact backend.
	EscalateAt int
	// Features is the feature-space basis size m (default
	// surrogate.DefaultFeatures).
	Features int
}

// The feature-space backend's cadence: every featureHyperEvery observations
// it re-estimates the hyperparameters with an exact hyperfit on at most
// featureSubsample of them — a cost independent of n — redraws the basis and
// rebuilds the weight-space posterior from scratch. In between, every new
// observation is a rank-1 update.
const (
	featureHyperEvery = 64
	featureSubsample  = 256
)

// ModelManager owns the surrogate across a run: it trains the active
// backend from scratch on its hyperparameter cadence — warm-started from the
// last training — and extends the model it holds incrementally in between
// (rank-append on the exact GP, rank-1 information updates on the feature
// backend), returning it unchanged while the data is. On the auto backend
// it escalates from the exact GP to the feature-space backend once the
// observation count reaches EscalateAt (a one-way switch, whose first
// training starts from the exact fit's hyperparameters). Its Fit method is a
// core.Fitter, shared by the bo drivers, the public ask/tell Loop and the
// serve sessions, so the surrogate cadence cannot drift between them.
//
// The feature-space backend approximates the SE-ARD kernel only; with a
// custom Kernel the auto backend never escalates.
type ModelManager struct {
	lo, hi []float64
	rng    *rand.Rand
	opts   ModelManagerOptions // defaults filled in

	active     surrogate.Backend // BackendExact or BackendFeatures
	theta      []float64         // hyperparameters of the last training; nil before the first
	logNoise   float64
	lastHyperN int // observations at the last training

	// handoff is the exact fit's θ and log-noise an escalation hands to the
	// feature backend's first training.
	handoff      []float64
	handoffNoise float64

	cached  surrogate.Surrogate // the model the last Fit returned
	cachedN int
}

// NewModelManager builds a surrogate manager over the design box. The rng
// drives hyperparameter restarts, subsampling, and feature draws; it must
// be the run's rng for determinism.
func NewModelManager(lo, hi []float64, rng *rand.Rand, o ModelManagerOptions) (*ModelManager, error) {
	if o.Backend == "" {
		o.Backend = surrogate.BackendAuto
	}
	if o.EscalateAt <= 0 {
		o.EscalateAt = surrogate.DefaultEscalateAt
	}
	if o.RefitEvery <= 0 {
		o.RefitEvery = surrogate.DefaultRefitEvery
	}
	if o.FitIters <= 0 {
		o.FitIters = surrogate.DefaultFitIters
	}
	if o.Features <= 0 {
		o.Features = surrogate.DefaultFeatures
	} else if o.Features < gp.MinRFFFeatures {
		// Mirror gp.NewRFF: a too-small basis is an error, never a silent
		// resize (Features <= 0 means "use the default").
		return nil, fmt.Errorf("core: %d surrogate features requested, minimum is %d", o.Features, gp.MinRFFFeatures)
	}
	mm := &ModelManager{lo: lo, hi: hi, rng: rng, opts: o, active: surrogate.BackendExact}
	if o.Backend == surrogate.BackendFeatures {
		if !seard(o.Kernel) {
			// The feature basis approximates SE-ARD only; quietly fitting
			// a different kernel family than configured would be worse
			// than refusing.
			return nil, fmt.Errorf("core: the feature-space backend supports the SE-ARD kernel, not %s", o.Kernel.Name())
		}
		mm.active = surrogate.BackendFeatures
	}
	return mm, nil
}

// seard reports whether a configured kernel is SE-ARD (nil is).
func seard(k gp.Kernel) bool {
	_, ok := k.(gp.SEARD)
	return k == nil || ok
}

// Fit returns a surrogate trained on the observations, re-optimizing
// hyperparameters on the active backend's cadence. Observations are
// append-only across a run, so the model the last Fit returned is valid
// while the count is unchanged and absorbs new points incrementally in
// between trainings.
func (mm *ModelManager) Fit(x [][]float64, y []float64) (surrogate.Surrogate, error) {
	n := len(y)
	if mm.active == surrogate.BackendExact && mm.opts.Backend == surrogate.BackendAuto &&
		n >= mm.opts.EscalateAt && seard(mm.opts.Kernel) {
		// The switch is one-way and frees the exact factor's O(n²) state.
		mm.handoff, mm.handoffNoise = mm.theta, mm.logNoise
		mm.active, mm.theta, mm.logNoise, mm.lastHyperN = surrogate.BackendFeatures, nil, 0, 0
		mm.cached, mm.cachedN = nil, 0
	}
	if mm.cached != nil && n == mm.cachedN {
		return mm.cached, nil
	}
	cadence := mm.opts.RefitEvery
	if mm.active == surrogate.BackendFeatures {
		cadence = featureHyperEvery
	}
	if mm.cached != nil && n-mm.lastHyperN < cadence {
		// Between trainings. A failed extension means the frozen
		// hyperparameters or frame became numerically unusable for the grown
		// dataset (e.g. duplicate points with tiny noise); fall through to a
		// training in that case. So does a manager that was just Restored: it
		// has hyperparameters but no model to extend.
		if m, err := mm.cached.Extend(x[mm.cachedN:n], y[mm.cachedN:n]); err == nil {
			mm.cached, mm.cachedN = m, n
			return m, nil
		}
	}
	return mm.train(x, y)
}

// train fits the active backend from scratch. The exact backend optimizes
// the hyperparameters on all n observations; the feature backend optimizes
// them on an exact GP over a bounded subsample, then draws its basis at
// them and fits every observation.
func (mm *ModelManager) train(x [][]float64, y []float64) (surrogate.Surrogate, error) {
	n := len(y)
	fo := &gp.FitOptions{Iters: mm.opts.FitIters}
	switch {
	case mm.theta != nil:
		// Warm start: fewer iterations, no default or random restarts.
		fo.InitTheta, fo.InitNoise, fo.WarmOnly = mm.theta, mm.logNoise, true
		fo.Iters = max(mm.opts.FitIters/2, 10)
	case mm.handoff != nil:
		fo.InitTheta, fo.InitNoise = mm.handoff, mm.handoffNoise
	}
	features := mm.active == surrogate.BackendFeatures
	kern, hx, hy := mm.opts.Kernel, x, y
	if kern == nil || features {
		kern = gp.SEARD{}
	}
	if features && n > featureSubsample {
		idx := mm.rng.Perm(n)[:featureSubsample]
		sort.Ints(idx)
		hx, hy = make([][]float64, len(idx)), make([]float64, len(idx))
		for i, j := range idx {
			hx[i], hy[i] = x[j], y[j]
		}
	}
	e, err := surrogate.NewExact(hx, hy, mm.lo, mm.hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.FitHyper(kern, xs, ys, mm.rng, fo)
	})
	if err != nil {
		return nil, err
	}
	mm.theta, mm.logNoise = e.Hyper()
	var m surrogate.Surrogate = e
	if features {
		if m, err = surrogate.FitFeatures(x, y, mm.lo, mm.hi, mm.theta, mm.logNoise, mm.rng, mm.opts.Features); err != nil {
			return nil, err
		}
	}
	mm.lastHyperN, mm.cached, mm.cachedN = n, m, n
	return m, nil
}

// Active returns the backend currently serving fits: BackendExact until an
// auto escalation (or always, for the exact backend), BackendFeatures
// afterwards. Exposed for status reporting.
func (mm *ModelManager) Active() surrogate.Backend { return mm.active }

// Hyper returns the hyperparameters of the last training (ok=false before
// the first). Exposed so service sessions can report and snapshot them.
func (mm *ModelManager) Hyper() (theta []float64, logNoise float64, ok bool) {
	if mm.theta == nil {
		return nil, 0, false
	}
	return append([]float64(nil), mm.theta...), mm.logNoise, true
}

// ModelState is what a ModelManager carries from one Fit to the next apart
// from the fitted model: the active backend, the hyperparameters of its last
// from-scratch training and the observation count it ran at. The model is
// deliberately not part of it. Between trainings a model is grown
// incrementally, and a factor rebuilt from these numbers is not guaranteed
// to equal the grown one bit for bit; a from-scratch training reads only
// this state, the data and the rng, so that is the one point at which a
// manager can be put back exactly.
//
// A session records the state in front of every Fit that trained from
// scratch — LastHyperN or Active moved across it — and Restore puts a fresh
// manager back there. Theta aliases the manager's slice, which a training
// replaces but never writes; treat it as read-only.
type ModelState struct {
	Active     surrogate.Backend
	Theta      []float64 // nil before the first training
	LogNoise   float64
	LastHyperN int
}

// State returns the manager's current ModelState.
func (mm *ModelManager) State() ModelState {
	return ModelState{Active: mm.active, Theta: mm.theta, LogNoise: mm.logNoise, LastHyperN: mm.lastHyperN}
}

// Restore puts a manager that has not fitted yet into a recorded state: the
// recorded backend becomes the active one — an auto manager recorded past
// its escalation comes back escalated — and holds the recorded
// hyperparameters with no fitted model, so the next Fit trains from scratch,
// warm-started, the way the recorded run's next Fit did. A state the
// configuration could never have reached is an error.
func (mm *ModelManager) Restore(st ModelState) error {
	kern := mm.opts.Kernel
	switch st.Active {
	case surrogate.BackendExact:
		if mm.active != surrogate.BackendExact {
			return fmt.Errorf("core: cannot restore the exact backend into a %s manager", mm.opts.Backend)
		}
	case surrogate.BackendFeatures:
		if mm.active != surrogate.BackendFeatures && (mm.opts.Backend != surrogate.BackendAuto || !seard(kern)) {
			return fmt.Errorf("core: cannot restore the feature-space backend into a %s manager", mm.opts.Backend)
		}
		kern = gp.SEARD{}
	default:
		return fmt.Errorf("core: cannot restore unknown backend %q", st.Active)
	}
	if kern == nil {
		kern = gp.SEARD{}
	}
	switch numHyper := kern.NumHyper(len(mm.lo)); {
	case st.Theta == nil && st.LastHyperN != 0:
		return fmt.Errorf("core: model state trained at n=%d has no hyperparameters", st.LastHyperN)
	case st.Theta != nil && len(st.Theta) != numHyper:
		return fmt.Errorf("core: model state has %d hyperparameters, the kernel takes %d", len(st.Theta), numHyper)
	case st.LastHyperN < 0:
		return fmt.Errorf("core: model state trained at n=%d", st.LastHyperN)
	}
	mm.active, mm.theta, mm.logNoise, mm.lastHyperN = st.Active, st.Theta, st.LogNoise, st.LastHyperN
	mm.handoff, mm.cached, mm.cachedN = nil, nil, 0
	return nil
}
