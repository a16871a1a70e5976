package circuit

import (
	"fmt"

	"easybo/internal/linalg"
)

// DCSweepResult holds the node solutions of a swept-source DC analysis.
type DCSweepResult struct {
	c      *Circuit
	Values []float64   // swept source values
	X      [][]float64 // one solution vector per sweep point
}

// V returns the voltage waveform of a named node across the sweep.
func (r *DCSweepResult) V(node string) []float64 {
	idx, ok := r.c.nodes[node]
	if !ok {
		return nil
	}
	out := make([]float64, len(r.X))
	for k, x := range r.X {
		if idx == 0 {
			out[k] = 0
		} else {
			out[k] = x[idx-1]
		}
	}
	return out
}

// DCSweep ramps the named voltage or current source from 'from' to 'to' in
// 'steps' points (inclusive) and solves the operating point at each value,
// warm-starting Newton from the previous solution — the standard SPICE .DC
// analysis. The source's waveform is restored afterwards.
func (c *Circuit) DCSweep(srcName string, from, to float64, steps int) (*DCSweepResult, error) {
	if steps < 2 {
		return nil, fmt.Errorf("circuit: DCSweep needs at least 2 steps")
	}
	if err := c.Compile(); err != nil {
		return nil, err
	}
	var setValue func(v float64)
	var restore func()
	for _, d := range c.devices {
		switch s := d.(type) {
		case *VSource:
			if s.Name == srcName {
				old := s.Wave
				setValue = func(v float64) { s.Wave = DC(v) }
				restore = func() { s.Wave = old }
			}
		case *ISource:
			if s.Name == srcName {
				old := s.Wave
				setValue = func(v float64) { s.Wave = DC(v) }
				restore = func() { s.Wave = old }
			}
		}
	}
	if setValue == nil {
		return nil, fmt.Errorf("circuit: DCSweep source %q not found", srcName)
	}
	defer restore()

	res := &DCSweepResult{c: c}
	var prev []float64
	stats := &NewtonStats{}
	for k := 0; k < steps; k++ {
		v := from + (to-from)*float64(k)/float64(steps-1)
		setValue(v)
		var x []float64
		var ok bool
		if prev != nil {
			// Warm start from the previous sweep point.
			x, ok = c.newton(prev, opMaxIter, opGmin, 1.0, stats)
		}
		if !ok {
			sol, _, err := c.OP(nil)
			if err != nil {
				return nil, fmt.Errorf("circuit: DCSweep at %s=%g: %w", srcName, v, err)
			}
			x = sol.X
		}
		if !linalg.AllFinite(x) {
			return nil, fmt.Errorf("circuit: DCSweep produced non-finite solution at %g", v)
		}
		res.Values = append(res.Values, v)
		res.X = append(res.X, x)
		prev = x
	}
	return res, nil
}
