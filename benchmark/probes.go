package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"easybo/internal/acq"
	"easybo/internal/circuit"
	"easybo/internal/linalg"
	"easybo/internal/linalg/sparse"
	"easybo/internal/loadgen"
	"easybo/internal/optimize"
	"easybo/internal/testbench"
)

// The probes time single calls into the packages under the workloads, on
// fixed inputs, so a per-layer number exists for code that no decorator
// seam reaches. Each reports the minimum over repetitions.

// quietest runs f reps times and returns the shortest wall time in seconds.
func quietest(reps int, f func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best.Seconds()
}

func runProbes(m map[string]float64) error {
	for _, p := range []func(map[string]float64) error{
		probeCircuit, probeSparse, probeCholesky, probeMaximize, probeClient, probeColdEval,
	} {
		if err := p(m); err != nil {
			return err
		}
	}
	return nil
}

func probeCircuit(m map[string]float64) error {
	f, err := os.Open("testdata/probe.sp")
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := circuit.ParseNetlist(f, "probe")
	if err != nil {
		return err
	}
	var ferr error
	var steps, iters, factors int
	tran := quietest(5, func() {
		res, err := c.Tran(circuit.TranOptions{TStop: 400e-9, TStep: 0.2e-9, Record: []string{"out"}})
		if err != nil {
			ferr = err
			return
		}
		steps, iters, factors = len(res.T)-1, res.Stats.Iterations, res.Stats.Factors
	})
	if ferr != nil {
		return fmt.Errorf("probe transient: %w", ferr)
	}
	m["circuit.tran_us_per_step"] = tran * 1e6 / float64(steps)
	m["circuit.newton_iters_per_step"] = float64(iters) / float64(steps)
	m["circuit.lu_factors_per_step"] = float64(factors) / float64(steps)

	var op *circuit.Solution
	m["circuit.op_us"] = 1e6 * quietest(20, func() {
		op, _, ferr = c.OP(nil)
	})
	if ferr != nil {
		return fmt.Errorf("probe operating point: %w", ferr)
	}
	freqs := circuit.LogSpace(1e3, 1e10, 141)
	m["circuit.ac_us_per_freq"] = 1e6 / float64(len(freqs)) * quietest(20, func() {
		_, ferr = c.ACSweep(op, freqs, circuit.ACOptions{Workers: 1})
	})
	if ferr != nil {
		return fmt.Errorf("probe AC sweep: %w", ferr)
	}
	return nil
}

// probeSparse factors a fixed banded pattern with a few far couplings, the
// shape an MNA matrix has, at about the class-E testbench's size.
func probeSparse(m map[string]float64) error {
	const n = 24
	b := sparse.NewBuilder(n)
	type entry struct {
		slot int32
		v    float64
	}
	var entries []entry
	put := func(i, j int, v float64) { entries = append(entries, entry{b.Slot(i, j), v}) }
	for i := 0; i < n; i++ {
		put(i, i, 4+float64(i%3))
		if i+1 < n {
			put(i, i+1, -1)
			put(i+1, i, -1.5)
		}
		if i+5 < n {
			put(i, i+5, 0.25)
			put(i+5, i, -0.5)
		}
	}
	a, remap := b.BuildReal()
	for _, e := range entries {
		a.Val[remap[e.slot]] = e.v
	}
	lu := sparse.NewLU()
	rhs, x := make([]float64, n), make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i + 1)
	}
	const inner = 200
	var ferr error
	per := func(f func() error) float64 {
		return 1e6 / inner * quietest(20, func() {
			for i := 0; i < inner; i++ {
				if err := f(); err != nil {
					ferr = err
				}
			}
		})
	}
	m["sparse.lu_factor_us"] = per(func() error { return lu.Factor(a) })
	m["sparse.lu_refactor_us"] = per(func() error { return lu.Refactor(a) })
	m["sparse.lu_solve_us"] = per(func() error { lu.Solve(rhs, x); return nil })
	if ferr != nil {
		return fmt.Errorf("probe sparse LU: %w", ferr)
	}
	y := make([]float64, n)
	a.MulVec(x, y)
	for i := range y {
		if d := y[i] - rhs[i]; d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("probe sparse LU: residual %g in row %d", d, i)
		}
	}
	return nil
}

// probeCholesky factors a 150×150 SPD matrix: the size of bo-opamp's Gram
// matrix at the end of a block, where hyperparameter refits are
// Cholesky-bound.
func probeCholesky(m map[string]float64) error {
	const n = 150
	rng := rand.New(rand.NewSource(1))
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.Float64() - 0.5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Add(i, i, n)
	}
	var ferr error
	m["linalg.cholesky_ms_n150"] = 1e3 * quietest(20, func() {
		_, ferr = linalg.NewCholesky(a)
	})
	return ferr
}

// constSurrogate is the stub behind acq.weighted_ns.
type constSurrogate struct{}

func (constSurrogate) Predict([]float64) (float64, float64) { return 0.5, 0.25 }

// probeMaximize runs the acquisition maximizer on a fixed analytic
// objective: what it measures is the maximizer's own bookkeeping per
// objective call, which on bo-opamp is paid thousands of times per ask.
func probeMaximize(m map[string]float64) error {
	const d = 10
	lo, hi := make([]float64, d), make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	var evals int
	f := func(x []float64) float64 {
		evals++
		var s float64
		for _, v := range x {
			s -= (v - 0.3) * (v - 0.3)
		}
		return s
	}
	var best float64
	wall := quietest(10, func() {
		evals = 0
		_, best = optimize.Maximize(f, lo, hi, rand.New(rand.NewSource(1)), optimize.MaximizeOptions{})
	})
	if best < -0.05 {
		return fmt.Errorf("probe maximizer: best %g on a paraboloid with maximum 0", best)
	}
	m["optimize.maximize_evals"] = float64(evals)
	m["optimize.maximize_us_per_eval"] = wall * 1e6 / float64(evals)

	const calls = 1 << 16
	w := acq.Weighted{W: 0.5}
	x := make([]float64, d)
	var sink float64
	m["acq.weighted_ns"] = 1e9 / calls * quietest(20, func() {
		for i := 0; i < calls; i++ {
			sink += w.Value(constSurrogate{}, x)
		}
	})
	if sink == 0 {
		return fmt.Errorf("probe acquisition: zero sum")
	}
	return nil
}

// probeClient calibrates the harness: the load generator's own cost per
// call against a handler that does nothing.
func probeClient(m map[string]float64) error {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("{}\n")) // a failed write surfaces as the client's error
	}))
	defer srv.Close()
	cl := &loadgen.Client{HC: srv.Client(), Base: srv.URL}
	var out struct{}
	var ferr error
	m["loadgen.client_call_us"] = 1e6 * quietest(300, func() {
		if _, _, err := cl.Call(context.Background(), http.MethodPost, "/", struct{}{}, &out); err != nil {
			ferr = err
		}
	})
	return ferr
}

// probeColdEval is the first evaluation on a fresh class-E simulator, which
// compiles the stamp plan and does the symbolic LU analysis on top of the
// simulation itself: what de-classe pays once in set-up and once per
// restart.
func probeColdEval(m map[string]float64) error {
	lo, hi := testbench.ClassEBounds()
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = (lo[i] + hi[i]) / 2
	}
	m["testbench.classe_cold_eval_ms"] = 1e3 * quietest(5, func() { testbench.NewClassESim().Eval(x) })
	return nil
}
