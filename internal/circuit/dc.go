package circuit

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/linalg"
)

// OPOptions tunes the operating-point solver. The zero value requests the
// default.
type OPOptions struct {
	MaxIter int // Newton iterations per continuation stage (default opMaxIter)
}

// The operating-point solver's fixed settings.
const (
	opMaxIter = 150   // Newton iterations per continuation stage
	opAbsTol  = 1e-9  // absolute voltage tolerance, V
	opRelTol  = 1e-6  // relative tolerance
	opVStep   = 1.0   // maximum Newton voltage update per iteration, V
	opGmin    = 1e-12 // final gmin, S
)

// ErrNoConvergence is returned when every continuation strategy fails.
var ErrNoConvergence = errors.New("circuit: operating point did not converge")

// opStage is one Newton solve of a continuation ladder.
type opStage struct{ gmin, srcScale float64 }

// opLadders are OP's continuation strategies in the order it tries them.
// Each starts from zero and warm-starts every stage from the one before.
var opLadders = [][]opStage{
	{{opGmin, 1}},
	{{1e-2, 1}, {1e-3, 1}, {1e-4, 1}, {1e-5, 1}, {1e-6, 1}, {1e-8, 1}, {1e-10, 1}, {opGmin, 1}},
	{{opGmin, 0.1}, {opGmin, 0.2}, {opGmin, 0.4}, {opGmin, 0.6}, {opGmin, 0.8}, {opGmin, 0.9}, {opGmin, 1}},
}

// OP computes the DC operating point. It first attempts plain Newton from a
// zero initial guess, then gmin stepping (relaxing a large conductance to
// ground on every node), then source stepping (ramping all independent
// sources from zero). NewtonStats reports the total iteration count, which
// the testbenches use as a deterministic simulation-cost proxy.
func (c *Circuit) OP(opts *OPOptions) (*Solution, *NewtonStats, error) {
	maxIter := opMaxIter
	if opts != nil && opts.MaxIter > 0 {
		maxIter = opts.MaxIter
	}
	if err := c.Compile(); err != nil {
		return nil, nil, err
	}
	stats := &NewtonStats{}
	for _, ladder := range opLadders {
		x, ok := make([]float64, c.unknowns), true
		for _, st := range ladder {
			if x, ok = c.newton(x, maxIter, st.gmin, st.srcScale, stats); !ok {
				break
			}
		}
		if ok {
			return &Solution{c: c, X: x}, stats, nil
		}
	}
	return nil, stats, fmt.Errorf("%w (circuit %q)", ErrNoConvergence, c.Name)
}

// NewtonStats accumulates iteration counts across all Newton solves of an
// analysis.
type NewtonStats struct {
	Iterations int
	Factors    int // LU factorizations performed (full or pattern-reusing)
}

// newton runs damped Newton-Raphson from x0, returning the solution and
// whether it converged. Each iteration assembles the system on the
// circuit's backend — the compiled sparse kernel stamps through the plan
// and refactors on the frozen pattern, the dense reference builds and
// factors a fresh matrix — and solves it.
//
// Convergence on the very first iteration is accepted only when the
// nonlinear residual at x0 already vanishes (an exactly warm-started
// solve, e.g. a repeated sweep point or homotopy stage); a cold start
// always runs at least two iterations so the Δx criterion is meaningful.
func (c *Circuit) newton(x0 []float64, maxIter int, gmin, srcScale float64, stats *NewtonStats) ([]float64, bool) {
	ws := c.realWS(modeDC)
	nv := len(c.names) - 1
	e := &ws.e
	e.gmin, e.srcScale = gmin, srcScale
	ws.stampBase()
	x := ws.x
	copy(x, x0)
	xNew := ws.xNew
	for iter := 0; iter < maxIter; iter++ {
		stats.Iterations++
		e.firstIter = iter == 0
		e.x = x
		ws.assemble()
		residOK := iter == 0 && ws.residualVanishes(x, opAbsTol)
		factored, err := ws.solve(xNew)
		if err != nil {
			return nil, false
		}
		if factored {
			stats.Factors++
		}
		if !linalg.AllFinite(xNew) {
			return nil, false
		}
		// Damping: limit the largest voltage change.
		maxDelta := 0.0
		for i := 0; i < nv; i++ {
			if d := math.Abs(xNew[i] - x[i]); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta > opVStep {
			f := opVStep / maxDelta
			for i := range xNew {
				xNew[i] = x[i] + f*(xNew[i]-x[i])
			}
		}
		converged := maxDelta <= opAbsTol
		if !converged {
			converged = true
			for i := 0; i < nv; i++ {
				if math.Abs(xNew[i]-x[i]) > opAbsTol+opRelTol*math.Abs(xNew[i]) {
					converged = false
					break
				}
			}
		}
		copy(x, xNew)
		if converged && (iter > 0 || residOK) {
			return append([]float64(nil), x...), true
		}
	}
	return nil, false
}
