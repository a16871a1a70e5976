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
	x := make([]float64, c.unknowns)

	// Strategy 1: direct Newton.
	if xs, ok := c.newton(x, maxIter, opGmin, 1.0, stats); ok {
		return &Solution{c: c, X: xs}, stats, nil
	}
	// Strategy 2: gmin stepping.
	x = make([]float64, c.unknowns)
	ok := true
	for _, g := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, opGmin} {
		var xs []float64
		xs, ok = c.newton(x, maxIter, g, 1.0, stats)
		if !ok {
			break
		}
		x = xs
	}
	if ok {
		return &Solution{c: c, X: x}, stats, nil
	}
	// Strategy 3: source stepping.
	x = make([]float64, c.unknowns)
	ok = true
	for _, s := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		var xs []float64
		xs, ok = c.newton(x, maxIter, opGmin, s, stats)
		if !ok {
			break
		}
		x = xs
	}
	if ok {
		return &Solution{c: c, X: x}, stats, nil
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
// whether it converged. The sparse path stamps through the compiled plan
// and refactors on the frozen pattern; the dense path is the original
// reference implementation.
//
// Convergence on the very first iteration is accepted only when the
// nonlinear residual at x0 already vanishes (an exactly warm-started
// solve, e.g. a repeated sweep point or homotopy stage); a cold start
// always runs at least two iterations so the Δx criterion is meaningful.
func (c *Circuit) newton(x0 []float64, maxIter int, gmin, srcScale float64, stats *NewtonStats) ([]float64, bool) {
	if c.dense {
		return c.newtonDense(x0, maxIter, gmin, srcScale, stats)
	}
	ws := c.realWS(modeDC)
	nv := len(c.names) - 1
	e := &ws.e
	*e = env{mode: modeDC, c: c, gmin: gmin, srcScale: srcScale}
	ws.stampBase(e)
	x := ws.x
	copy(x, x0)
	xNew := ws.xNew
	for iter := 0; iter < maxIter; iter++ {
		stats.Iterations++
		e.firstIter = iter == 0
		e.x = x
		ws.assemble(e)
		if from := ws.dirtyFrom(); from < ws.A.N {
			if err := ws.factorFrom(from); err != nil {
				return nil, false
			}
			stats.Factors++
		}
		residOK := false
		if iter == 0 {
			residOK = residualVanishes(ws, x, opAbsTol)
		}
		ws.lu.Solve(ws.b, xNew)
		if !linalg.AllFinite(xNew) {
			return nil, false
		}
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

// residualVanishes reports whether |A·x − b| is below tol on every row: the
// stamped linearization is exact at x, so this is the nonlinear KCL/KVL
// residual of the starting point.
func residualVanishes(ws *realWorkspace, x []float64, tol float64) bool {
	ws.A.MulVec(x, ws.resid)
	for i, r := range ws.resid {
		if math.Abs(r-ws.b[i]) > tol {
			return false
		}
	}
	return true
}

// newtonDense is the original dense-matrix Newton loop, kept as the golden
// reference and benchmark baseline.
func (c *Circuit) newtonDense(x0 []float64, maxIter int, gmin, srcScale float64, stats *NewtonStats) ([]float64, bool) {
	x := linalg.Clone(x0)
	e := &env{mode: modeDC, c: c, gmin: gmin, srcScale: srcScale}
	n := c.unknowns
	for iter := 0; iter < maxIter; iter++ {
		stats.Iterations++
		e.firstIter = iter == 0
		e.A = linalg.NewMatrix(n, n)
		e.b = make([]float64, n)
		e.x = x
		for _, d := range c.devices {
			d.stamp(e)
		}
		// Tiny conductance to ground on every node keeps floating nodes from
		// making the matrix singular.
		for i := 0; i < len(c.names)-1; i++ {
			e.A.Add(i, i, nodeGmin)
		}
		residOK := false
		if iter == 0 {
			residOK = true
			for i, r := range e.A.MulVec(x) {
				if math.Abs(r-e.b[i]) > opAbsTol {
					residOK = false
					break
				}
			}
		}
		xNew, err := linalg.SolveLinear(e.A, e.b)
		if err != nil {
			return nil, false
		}
		stats.Factors++
		if !linalg.AllFinite(xNew) {
			return nil, false
		}
		// Damping: limit the largest voltage change.
		maxDelta := 0.0
		nv := len(c.names) - 1
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
		x = xNew
		if converged && (iter > 0 || residOK) {
			return x, true
		}
	}
	return nil, false
}
