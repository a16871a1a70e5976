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
	// maxTranSteps bounds a run's step count, so an absurd TStop/TStep is an
	// error rather than a waveform allocation that cannot succeed.
	maxTranSteps = 1 << 24
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
	// The negated comparisons reject NaN too.
	if !(opts.TStop > 0) || !(opts.TStep > 0) || math.IsInf(opts.TStop, 0) || math.IsInf(opts.TStep, 0) {
		return nil, errors.New("circuit: Tran requires finite positive TStop and TStep")
	}
	steps := math.Ceil(opts.TStop / opts.TStep)
	if steps > maxTranSteps {
		return nil, fmt.Errorf("circuit: Tran needs %g steps (TStop/TStep), more than the %d allowed", steps, maxTranSteps)
	}
	nSteps := int(steps)
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

	ws := c.realWS(modeTran)
	ws.baseMatrixValid = false // device params may have changed since the last run
	e := &ws.e
	e.dt, e.xprev = opts.TStep, x
	// Reset companion states from the initial solution.
	var statefuls []stateful
	for _, d := range c.devices {
		if s, ok := d.(stateful); ok {
			statefuls = append(statefuls, s)
			s.reset(e)
		}
	}
	appendSample(0, x)

	// cur holds the accepted solution of the previous timepoint; each
	// step's converged result lands in the workspace's buffers. Waveform
	// samples are copied out, so the buffers can be reused across all steps.
	cur := append([]float64(nil), x...)
	t := 0.0
	for step := 0; step < nSteps; step++ {
		tNew := t + opts.TStep
		e.time = tNew
		e.trapFlag = step > 0 // BE start, then trapezoidal
		e.xprev = cur
		sol, ok := c.tranNewton(ws, cur, &stats)
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

// tranNewton solves one timestep. On the sparse kernel an iteration
// performs only indexed stamp writes, a pattern-reusing refactorization
// (skipped entirely when the Jacobian is bitwise unchanged — linear
// circuits at a fixed step factor exactly once per integration method), or
// a rank-1 correction against the factored static base, and an in-place
// solve: no allocations. On the dense reference every iteration builds and
// factors a fresh matrix.
func (c *Circuit) tranNewton(ws *realWorkspace, x0 []float64, stats *NewtonStats) ([]float64, bool) {
	ws.stampBaseStep()
	rank1 := ws.rank1OK
	if rank1 && (!ws.rank1Primed || ws.baseLUEpoch != ws.baseEpoch) {
		rank1 = ws.primeRank1()
		if rank1 {
			stats.Factors++
		}
	}
	e := &ws.e
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
			ws.assembleDyn()
			solved = ws.solveRank1(xNew)
			if !solved {
				ws.restoreFull()
			}
		} else {
			ws.assemble()
		}
		if !solved {
			factored, err := ws.solve(xNew)
			if err != nil {
				return nil, false
			}
			if factored {
				stats.Factors++
			}
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
