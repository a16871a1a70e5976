package circuit

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/linalg"
)

// TranOptions configures a transient analysis.
type TranOptions struct {
	TStop float64 // end time (required)
	TStep float64 // fixed step size (required)
	UIC   bool    // skip the initial OP; start from zero state
	// Record lists node names to record. Empty means record all nodes.
	Record []string
}

// The timestep Newton solver's fixed settings.
const (
	tranMaxIter = 50   // Newton iterations per step
	tranAbsTol  = 1e-6 // voltage tolerance, V
	tranRelTol  = 1e-4 // relative tolerance
)

// TranResult holds the recorded waveforms of a transient run.
type TranResult struct {
	c     *Circuit
	T     []float64
	index map[string]int
	V     [][]float64 // V[i] is the waveform of recorded node i
	Stats NewtonStats
}

// Node returns the recorded waveform for a node name (nil if not recorded).
func (r *TranResult) Node(name string) []float64 {
	if i, ok := r.index[name]; ok {
		return r.V[i]
	}
	return nil
}

// Tran runs a fixed-step transient analysis with trapezoidal integration
// (backward Euler on the first step to damp the trap start-up ringing).
func (c *Circuit) Tran(opts TranOptions) (*TranResult, error) {
	if opts.TStop <= 0 || opts.TStep <= 0 {
		return nil, errors.New("circuit: Tran requires positive TStop and TStep")
	}
	if err := c.Compile(); err != nil {
		return nil, err
	}

	// Initial state.
	var x []float64
	stats := NewtonStats{}
	switch {
	case opts.UIC:
		x = make([]float64, c.unknowns)
	default:
		sol, opStats, err := c.OP(nil)
		stats.Iterations += opStats.Iterations
		stats.Factors += opStats.Factors
		if err != nil {
			return nil, fmt.Errorf("circuit: transient initial OP: %w", err)
		}
		x = sol.X
	}

	// Which nodes to record.
	record := opts.Record
	if len(record) == 0 {
		record = c.NodeNames()
	}
	res := &TranResult{c: c, index: map[string]int{}}
	recIdx := make([]int, len(record))
	for i, name := range record {
		idx, ok := c.nodes[name]
		if !ok {
			return nil, fmt.Errorf("circuit: record node %q not in netlist", name)
		}
		res.index[name] = i
		recIdx[i] = idx
	}
	res.V = make([][]float64, len(record))

	nSteps := int(math.Ceil(opts.TStop / opts.TStep))
	res.T = make([]float64, 0, nSteps+1)
	for i := range res.V {
		res.V[i] = make([]float64, 0, nSteps+1)
	}
	appendSample := func(t float64, xv []float64) {
		res.T = append(res.T, t)
		for i, idx := range recIdx {
			v := 0.0
			if idx > 0 {
				v = xv[idx-1]
			}
			res.V[i] = append(res.V[i], v)
		}
	}

	var ws *realWorkspace
	var e *env
	if c.dense {
		e = &env{}
	} else {
		ws = c.realWS(modeTran)
		ws.baseMatrixValid = false // device params may have changed since the last run
		e = &ws.e
	}
	*e = env{mode: modeTran, c: c, dt: opts.TStep, srcScale: 1, gmin: nodeGmin, xprev: x}
	// Reset companion states from the initial solution.
	var statefuls []stateful
	for _, d := range c.devices {
		if s, ok := d.(stateful); ok {
			statefuls = append(statefuls, s)
			s.reset(e)
		}
	}
	appendSample(0, x)

	// cur holds the accepted solution of the previous timepoint; sol
	// receives each step's converged result (ws buffers on the sparse
	// path). Waveform samples are copied out, so the buffers can be
	// reused across all steps.
	cur := append([]float64(nil), x...)
	t := 0.0
	for step := 0; step < nSteps; step++ {
		tNew := t + opts.TStep
		e.time = tNew
		e.trapFlag = step > 0 // BE start, then trapezoidal
		e.xprev = cur
		var sol []float64
		var ok bool
		if c.dense {
			sol, ok = c.tranNewtonDense(cur, e, &stats)
		} else {
			sol, ok = c.tranNewtonSparse(ws, cur, e, &stats)
		}
		if !ok {
			return nil, fmt.Errorf("circuit %q: transient Newton failed at t=%g", c.Name, tNew)
		}
		// Advance companion states with the accepted solution.
		e.x = sol
		for _, s := range statefuls {
			s.advance(e)
		}
		copy(cur, sol)
		t = tNew
		appendSample(t, cur)
	}
	res.Stats = stats
	return res, nil
}

// tranNewtonSparse solves one timestep on the compiled sparse workspace.
// Per iteration it performs only indexed stamp writes, a pattern-reusing
// refactorization (skipped entirely when the Jacobian is bitwise unchanged
// — linear circuits at a fixed step factor exactly once per integration
// method), and an in-place solve: no allocations.
func (c *Circuit) tranNewtonSparse(ws *realWorkspace, x0 []float64, e *env, stats *NewtonStats) ([]float64, bool) {
	ws.stampBaseStep(e)
	rank1 := ws.rank1OK
	if rank1 && (!ws.rank1Primed || ws.baseLUEpoch != ws.baseEpoch) {
		rank1 = ws.primeRank1()
		if rank1 {
			stats.Factors++
		}
	}
	x := ws.x
	copy(x, x0)
	xNew := ws.xNew
	nv := len(c.names) - 1
	for iter := 0; iter < tranMaxIter; iter++ {
		stats.Iterations++
		e.firstIter = iter == 0
		e.x = x
		solved := false
		if rank1 {
			ws.assembleDyn(e)
			solved = ws.solveRank1(xNew)
			if !solved {
				ws.restoreFull()
			}
		} else {
			ws.assemble(e)
		}
		if !solved {
			if from := ws.dirtyFrom(); from < ws.A.N {
				if err := ws.factorFrom(from); err != nil {
					return nil, false
				}
				stats.Factors++
			}
			ws.lu.Solve(ws.b, xNew)
		}
		if !linalg.AllFinite(xNew) {
			return nil, false
		}
		converged := true
		for i := 0; i < nv; i++ {
			if math.Abs(xNew[i]-x[i]) > tranAbsTol+tranRelTol*math.Abs(xNew[i]) {
				converged = false
				break
			}
		}
		copy(x, xNew)
		if converged {
			return x, true
		}
	}
	return nil, false
}

// tranNewtonDense is the original dense-matrix timestep solver, kept as
// the golden reference and benchmark baseline.
func (c *Circuit) tranNewtonDense(x0 []float64, e *env, stats *NewtonStats) ([]float64, bool) {
	x := linalg.Clone(x0)
	n := c.unknowns
	for iter := 0; iter < tranMaxIter; iter++ {
		stats.Iterations++
		e.firstIter = iter == 0
		e.A = linalg.NewMatrix(n, n)
		e.b = make([]float64, n)
		e.x = x
		for _, d := range c.devices {
			d.stamp(e)
		}
		for i := 0; i < len(c.names)-1; i++ {
			e.A.Add(i, i, nodeGmin)
		}
		xNew, err := linalg.SolveLinear(e.A, e.b)
		if err != nil {
			return nil, false
		}
		stats.Factors++
		if !linalg.AllFinite(xNew) {
			return nil, false
		}
		converged := true
		nv := len(c.names) - 1
		for i := 0; i < nv; i++ {
			if math.Abs(xNew[i]-x[i]) > tranAbsTol+tranRelTol*math.Abs(xNew[i]) {
				converged = false
				break
			}
		}
		x = xNew
		if converged {
			return x, true
		}
	}
	return nil, false
}
