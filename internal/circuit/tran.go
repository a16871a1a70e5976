package circuit

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	c      *Circuit
	T      []float64
	index  map[string]int
	recIdx []int       // recorded waveform -> node index
	V      [][]float64 // V[i] is the waveform of recorded node i
	Stats  NewtonStats
}

// Node returns the recorded waveform for a node name (nil if not recorded).
func (r *TranResult) Node(name string) []float64 {
	if i, ok := r.index[name]; ok {
		return r.V[i]
	}
	return nil
}

// sample appends timepoint t with solution x to every recorded waveform.
func (r *TranResult) sample(t float64, x []float64) {
	r.T = append(r.T, t)
	for i, idx := range r.recIdx {
		v := 0.0
		if idx > 0 {
			v = x[idx-1]
		}
		r.V[i] = append(r.V[i], v)
	}
}

// Tran runs a fixed-step transient analysis into a new result; see TranInto.
func (c *Circuit) Tran(opts TranOptions) (*TranResult, error) {
	res := new(TranResult)
	if err := c.TranInto(res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// TranInto runs a fixed-step transient analysis with trapezoidal
// integration (backward Euler on the first step to damp the trap start-up
// ringing) and writes the waveforms into res. It reuses res's time axis,
// waveforms and index wherever their capacity suffices and grows them only
// where it does not, so a warm caller that runs the same netlist again and
// again allocates nothing. The next call on the same res overwrites it; the
// slices of an earlier run alias the new one. After an error res's contents
// are unspecified.
func (c *Circuit) TranInto(res *TranResult, opts TranOptions) error {
	// The negated comparisons reject NaN too.
	if !(opts.TStop > 0) || !(opts.TStep > 0) || math.IsInf(opts.TStop, 0) || math.IsInf(opts.TStep, 0) {
		return errors.New("circuit: Tran requires finite positive TStop and TStep")
	}
	steps := math.Ceil(opts.TStop / opts.TStep)
	if steps > maxTranSteps {
		return fmt.Errorf("circuit: Tran needs %g steps (TStop/TStep), more than the %d allowed", steps, maxTranSteps)
	}
	nSteps := int(steps)
	if err := c.Compile(); err != nil {
		return err
	}

	// Initial state: the operating point, or zero under UIC.
	var op []float64
	stats := NewtonStats{}
	if !opts.UIC {
		sol, opStats, err := c.OP(nil)
		stats.Iterations += opStats.Iterations
		stats.Factors += opStats.Factors
		if err != nil {
			return fmt.Errorf("circuit: transient initial OP: %w", err)
		}
		op = sol.X
	}
	// cur holds the accepted solution of the previous timepoint; each
	// step's converged result lands in the workspace's buffers, and
	// waveform samples are copied out, so the buffers are reused across all
	// steps.
	ws := c.realWS(modeTran)
	cur := ws.cur
	clear(cur)
	copy(cur, op)

	// Which nodes to record: all of them (ground excluded) by default.
	record := opts.Record
	if len(record) == 0 {
		record = c.names[1:]
	}
	res.c = c
	if res.index == nil {
		res.index = make(map[string]int, len(record))
	}
	clear(res.index)
	res.recIdx = slices.Grow(res.recIdx[:0], len(record))[:len(record)]
	for i, name := range record {
		idx, ok := c.nodes[name]
		if !ok {
			return fmt.Errorf("circuit: record node %q not in netlist", name)
		}
		res.index[name] = i
		res.recIdx[i] = idx
	}
	res.T = slices.Grow(res.T[:0], nSteps+1)
	res.V = slices.Grow(res.V[:0], len(record))[:len(record)]
	for i := range res.V {
		res.V[i] = slices.Grow(res.V[i][:0], nSteps+1)
	}

	ws.baseMatrixValid = false // device params may have changed since the last run
	e := &ws.e
	e.dt, e.xprev = opts.TStep, cur
	// Reset companion states from the initial solution.
	for _, s := range ws.statefuls {
		s.reset(e)
	}
	res.sample(0, cur)

	t := 0.0
	for step := 0; step < nSteps; step++ {
		tNew := t + opts.TStep
		e.time = tNew
		e.trapFlag = step > 0 // BE start, then trapezoidal
		e.xprev = cur
		sol, ok := c.tranNewton(ws, cur, &stats)
		if !ok {
			return fmt.Errorf("circuit %q: transient Newton failed at t=%g", c.Name, tNew)
		}
		// Advance companion states with the accepted solution.
		e.x = sol
		for _, s := range ws.statefuls {
			s.advance(e)
		}
		copy(cur, sol)
		t = tNew
		res.sample(t, cur)
	}
	res.Stats = stats
	return nil
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
