package core

import (
	"fmt"
	"math/rand"

	"easybo/internal/gp"
	"easybo/internal/surrogate"
)

// ModelManagerOptions tunes a ModelManager. Zero values select the paper's
// defaults (surrogate.DefaultRefitEvery, surrogate.DefaultFitIters, SE-ARD
// kernel) on the auto backend.
type ModelManagerOptions struct {
	RefitEvery int       // hyperparameter re-optimization cadence in observations
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

// ModelManager owns the surrogate across a run: it delegates to the
// configured backend manager and, on the auto backend, escalates from the
// exact GP to the feature-space backend once the observation count reaches
// EscalateAt (a one-way switch, warm-starting the feature backend's
// hyperparameters from the exact fit). Its Fit method is a core.Fitter,
// shared by the bo drivers, the public ask/tell Loop, and the serve
// sessions so surrogate cadence cannot drift between them.
//
// The feature-space backend approximates the SE-ARD kernel only; with a
// custom Kernel the auto backend never escalates.
type ModelManager struct {
	lo, hi []float64
	rng    *rand.Rand
	opts   ModelManagerOptions

	active surrogate.Backend // BackendExact or BackendFeatures: which one mgr is
	mgr    surrogate.Manager
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
	if o.Features > 0 && o.Features < gp.MinRFFFeatures {
		// Mirror gp.NewRFF: a too-small basis is an error, never a silent
		// resize (Features <= 0 means "use the default").
		return nil, fmt.Errorf("core: %d surrogate features requested, minimum is %d", o.Features, gp.MinRFFFeatures)
	}
	mm := &ModelManager{lo: lo, hi: hi, rng: rng, opts: o}
	if o.Backend == surrogate.BackendFeatures {
		if o.Kernel != nil {
			if _, ok := o.Kernel.(gp.SEARD); !ok {
				// The feature basis approximates SE-ARD only; quietly fitting
				// a different kernel family than configured would be worse
				// than refusing.
				return nil, fmt.Errorf("core: the feature-space backend supports the SE-ARD kernel, not %s", o.Kernel.Name())
			}
		}
		mm.toFeatures(surrogate.FeatureOptions{})
	} else {
		mm.active = surrogate.BackendExact
		mm.mgr = surrogate.NewExactManager(lo, hi, rng, surrogate.ExactOptions{
			RefitEvery: o.RefitEvery,
			FitIters:   o.FitIters,
			Kernel:     o.Kernel,
		})
	}
	return mm, nil
}

// toFeatures makes a fresh feature-space manager the active one; warm
// carries the hyperparameters an escalation hands over. The switch away from
// the exact manager is one-way and frees its O(n²) factor state.
func (mm *ModelManager) toFeatures(warm surrogate.FeatureOptions) {
	warm.Features, warm.FitIters = mm.opts.Features, mm.opts.FitIters
	mm.active = surrogate.BackendFeatures
	mm.mgr = surrogate.NewFeatureManager(mm.lo, mm.hi, mm.rng, warm)
}

// Fit returns a surrogate trained on the observations, re-optimizing
// hyperparameters on the active backend's cadence. Observations are
// append-only across a run; between hyperparameter refits new points are
// absorbed incrementally (rank-append on the exact backend, rank-1
// information updates on the feature-space backend).
func (mm *ModelManager) Fit(x [][]float64, y []float64) (surrogate.Surrogate, error) {
	if mm.active == surrogate.BackendExact && mm.shouldEscalate(len(y)) {
		var warm surrogate.FeatureOptions
		if theta, logNoise, ok := mm.mgr.Hyper(); ok {
			warm.InitTheta, warm.InitNoise = theta, logNoise
		}
		mm.toFeatures(warm)
	}
	return mm.mgr.Fit(x, y)
}

// shouldEscalate reports whether the auto backend hands over to the
// feature-space manager at n observations.
func (mm *ModelManager) shouldEscalate(n int) bool {
	if mm.opts.Backend != surrogate.BackendAuto || n < mm.opts.EscalateAt {
		return false
	}
	if mm.opts.Kernel != nil {
		if _, ok := mm.opts.Kernel.(gp.SEARD); !ok {
			return false // feature basis approximates SE-ARD only
		}
	}
	return true
}

// Active returns the backend currently serving fits: BackendExact until an
// auto escalation (or always, for the exact backend), BackendFeatures
// afterwards. Exposed for status reporting.
func (mm *ModelManager) Active() surrogate.Backend { return mm.active }

// Hyper returns the hyperparameters of the last optimization (ok=false
// before the first fit). Exposed so service sessions can report and
// snapshot them.
func (mm *ModelManager) Hyper() (theta []float64, logNoise float64, ok bool) {
	return mm.mgr.Hyper()
}

// ModelState is what a ModelManager carries from one Fit to the next apart
// from the fitted model: which backend is active and that backend's
// surrogate.ManagerState. A session records it in front of every Fit that
// trained from scratch (LastHyperN or Active moved across the Fit), and
// Restore puts a fresh manager back there.
type ModelState struct {
	Active surrogate.Backend
	surrogate.ManagerState
}

// State returns the manager's current ModelState. Theta is read-only (see
// surrogate.ManagerState).
func (mm *ModelManager) State() ModelState {
	return ModelState{Active: mm.active, ManagerState: mm.mgr.State()}
}

// Restore puts a manager that has not fitted yet into a recorded state: the
// recorded backend becomes the active one — an auto manager recorded past
// its escalation comes back escalated — and holds the recorded
// hyperparameters with no fitted model, so the next Fit trains from scratch
// the way the recorded run's next Fit did. A state the configuration could
// never have reached is an error.
func (mm *ModelManager) Restore(st ModelState) error {
	switch st.Active {
	case surrogate.BackendExact:
		if mm.active != surrogate.BackendExact {
			return fmt.Errorf("core: cannot restore the exact backend into a %s manager", mm.opts.Backend)
		}
	case surrogate.BackendFeatures:
		if mm.active != surrogate.BackendFeatures {
			if mm.opts.Backend != surrogate.BackendAuto {
				return fmt.Errorf("core: cannot restore the feature-space backend into a %s manager", mm.opts.Backend)
			}
			mm.toFeatures(surrogate.FeatureOptions{})
		}
	default:
		return fmt.Errorf("core: cannot restore unknown backend %q", st.Active)
	}
	return mm.mgr.Restore(st.ManagerState)
}
