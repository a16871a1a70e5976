// Package bo contains the Bayesian-optimization drivers that the paper's
// experiments run: sequential BO (EI, LCB, sequential EasyBO), synchronous
// batch BO (pBO, pHCBO, EasyBO-S, EasyBO-SP), asynchronous batch BO
// (EasyBO-A and full EasyBO via internal/core), and the non-BO baselines
// (differential evolution, random search).
//
// All drivers execute on the virtual-time engine of internal/sched, so the
// "simulation time" accounting of Tables I/II and Figures 4/6 is exact and
// machine-independent.
package bo

import (
	"context"
	"fmt"
	"math"
	"sort"

	"easybo/internal/core"
	"easybo/internal/gp"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Algorithm names the optimization strategies of the paper's §IV.
type Algorithm string

// The algorithms evaluated in the paper's experiment tables.
const (
	AlgoDE        Algorithm = "DE"         // differential evolution [13]
	AlgoRandom    Algorithm = "Random"     // uniform random search (extra baseline)
	AlgoEI        Algorithm = "EI"         // sequential BO, expected improvement
	AlgoLCB       Algorithm = "LCB"        // sequential BO, confidence bound
	AlgoEasyBOSeq Algorithm = "EasyBO-seq" // sequential EasyBO (Table rows "EasyBO" top block)
	AlgoPBO       Algorithm = "pBO"        // sync batch, fixed weight ladder (Eq. 4)
	AlgoPHCBO     Algorithm = "pHCBO"      // pBO + high-coverage penalty (Eq. 5-6)
	AlgoEasyBOS   Algorithm = "EasyBO-S"   // sync batch, κ-sampled weights, no penalization
	AlgoEasyBOSP  Algorithm = "EasyBO-SP"  // sync batch + hallucination penalization
	AlgoEasyBOA   Algorithm = "EasyBO-A"   // async batch, no penalization
	AlgoEasyBO    Algorithm = "EasyBO"     // async batch + penalization (the paper's method)
)

// Config selects and tunes an optimization run.
type Config struct {
	Algo       Algorithm
	BatchSize  int   // parallel workers B (default 1)
	InitPoints int   // initial random design size (default core.DefaultInitPoints)
	MaxEvals   int   // total simulations including the initial design
	Seed       int64 // master seed; every run is deterministic given it

	// EasyBO knobs.
	Lambda float64 // κ upper bound of Eq. (8) (default acq.DefaultLambda)

	// Surrogate management.
	RefitEvery int       // hyperparameter re-optimization cadence in observations (default surrogate.DefaultRefitEvery)
	FitIters   int       // Adam iterations per hyperfit (default surrogate.DefaultFitIters)
	Kernel     gp.Kernel // surrogate kernel (default SE-ARD, the paper's choice)

	// Surrogate selects the backend: exact GP, feature-space, or auto
	// (exact below EscalateAt observations, feature-space past it; the
	// default). EscalateAt <= 0 means surrogate.DefaultEscalateAt, and
	// Features <= 0 means surrogate.DefaultFeatures.
	Surrogate  surrogate.Backend
	EscalateAt int
	Features   int

	// Inner acquisition maximizer.
	AcqCandidates int // candidate sweep size (default 20·d, min 100)
	AcqRefine     int // best candidates refined by gradient ascent (default 3)

	DEPop int // DE population (default 50)

	// Failure policy for the virtual-engine drivers: what to do when an
	// evaluation fails (its objective returned NaN). Default core.FailAbort.
	Failure     core.FailurePolicy
	MaxFailures int // bound on tolerated failures (0 = policy default)
	// Ctx cancels the run between completions (nil = never). Honored by
	// every driver (async, sync, random, DE).
	Ctx context.Context
}

func (c *Config) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.InitPoints <= 0 {
		c.InitPoints = core.DefaultInitPoints
	}
	if c.MaxEvals <= 0 {
		c.MaxEvals = 150
	}
	if c.MaxEvals < c.InitPoints {
		c.InitPoints = c.MaxEvals
	}
	if c.DEPop <= 0 {
		c.DEPop = 50
	}
}

// History is the full trace of one optimization run.
type History struct {
	Algo      Algorithm
	BatchSize int
	Records   []sched.Result // successful completions, in completion order
	Failed    []sched.Result // failed evaluations (skipped or resubmitted)
	BestY     float64
	BestX     []float64
	Makespan  float64 // virtual seconds from start to last completion
}

// newHistory finalizes the successful and failed record lists into a History.
func newHistory(algo Algorithm, b int, recs, failed []sched.Result) *History {
	h := &History{Algo: algo, BatchSize: b, Records: recs, Failed: failed, BestY: math.Inf(-1)}
	for _, r := range recs {
		if r.Y > h.BestY {
			h.BestY = r.Y
			h.BestX = r.X
		}
		if r.End > h.Makespan {
			h.Makespan = r.End
		}
	}
	for _, r := range failed {
		if r.End > h.Makespan {
			h.Makespan = r.End
		}
	}
	return h
}

// CurveVsTime returns the best objective value observed up to each query
// time (a right-continuous step function; -Inf before the first completion).
// Used to regenerate the paper's Figures 4 and 6.
func (h *History) CurveVsTime(ts []float64) []float64 {
	// Sort completions by End.
	type pt struct{ t, y float64 }
	pts := make([]pt, len(h.Records))
	for i, r := range h.Records {
		pts[i] = pt{r.End, r.Y}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].t < pts[b].t })
	out := make([]float64, len(ts))
	best := math.Inf(-1)
	j := 0
	for i, t := range ts {
		for j < len(pts) && pts[j].t <= t {
			if pts[j].y > best {
				best = pts[j].y
			}
			j++
		}
		out[i] = best
	}
	return out
}

// IsBatch reports whether the algorithm uses parallel workers.
func (a Algorithm) IsBatch() bool {
	switch a {
	case AlgoPBO, AlgoPHCBO, AlgoEasyBOS, AlgoEasyBOSP, AlgoEasyBOA, AlgoEasyBO:
		return true
	}
	return false
}

// Label renders the table row label used in the paper ("pBO-5", "EasyBO-15",
// plain names for sequential rows).
func (a Algorithm) Label(batch int) string {
	if a == AlgoEasyBOSeq {
		return "EasyBO"
	}
	if !a.IsBatch() || batch <= 1 {
		return string(a)
	}
	return fmt.Sprintf("%s-%d", a, batch)
}
