package circuit

import (
	"math"
	"testing"
)

// benchNetlist is a class-E-scale nonlinear mix (13 unknowns: switch,
// diode, MOSFET, reactive ladder) used to measure the per-iteration solve
// kernel in isolation.
func benchNetlist() *Circuit {
	c := New("kernel-bench")
	c.AddV("VDD", "vdd", "0", DC(2.5))
	c.AddR("Rs", "vdd", "sw", 5e-3)
	c.AddL("L1", "sw", "drain", 10e-6)
	c.AddSwitch("S1", "drain", "0", "gate", "0", 0.1, 1e6, 1.0, 0.6)
	c.AddC("C1", "drain", "0", 10e-9)
	c.AddL("L2", "drain", "mid", 1e-6)
	c.AddC("C2", "mid", "out", 20e-9)
	c.AddR("RL", "out", "0", 1.2)
	c.AddV("Vg", "gate", "0", DC(0.8))
	c.AddDiode("D1", "out", "0")
	c.AddMOS("M1", "mid", "gate", "0", DefaultNMOS(10e-6, 0.35e-6))
	return c
}

// iterationHarness prepares a DC workspace on the chosen backend mid-solve
// so one iteration body (assemble + factor + solve) can run repeatedly.
func iterationHarness(tb testing.TB, dense bool) *realWorkspace {
	c := benchNetlist()
	c.SetDenseSolver(dense)
	if err := c.Compile(); err != nil {
		tb.Fatal(err)
	}
	ws := c.realWS(modeDC)
	ws.e.gmin, ws.e.srcScale = 1e-12, 1
	ws.stampBase()
	ws.e.x = ws.x
	// Prime: one full assemble+factor so the pattern and pivots exist.
	ws.assemble()
	if _, err := ws.solve(ws.xNew); err != nil {
		tb.Fatal(err)
	}
	return ws
}

// iterate runs iteration i of the harness: perturb the iterate so the
// nonlinear devices re-linearize and the Jacobian genuinely changes (no
// factor-skip shortcut), then assemble, factor and solve.
func iterate(tb testing.TB, ws *realWorkspace, i int) {
	ws.e.x[0] = 1e-7 * float64(i%13)
	ws.assemble()
	if _, err := ws.solve(ws.xNew); err != nil {
		tb.Fatal(err)
	}
}

// acPointHarness returns one AC frequency point's body — assemble,
// refactor, solve — on the mos-amp golden circuit with a load capacitor,
// cycling through a decade of frequencies.
func acPointHarness(tb testing.TB) func() {
	c := goldenCircuits["mos-amp"]()
	c.AddC("CL", "d", "0", 1e-12)
	op, _, err := c.OP(nil)
	if err != nil {
		tb.Fatal(err)
	}
	ws := c.acWorkspaces(1)[0]
	ws.e.op = op.X
	ws.stampBase()
	x := make([]complex128, c.unknowns)
	freqs := LogSpace(1e3, 1e4, 7)
	k := 0
	return func() {
		k++
		ws.e.omega = 2 * math.Pi * freqs[k%len(freqs)]
		ws.assemble()
		if err := ws.solve(x); err != nil {
			tb.Fatal(err)
		}
	}
}

// tranStepHarness returns one transient step's body — static pass, Newton
// to convergence, companion advance — as Tran runs it, from c's operating
// point at step dt. rank1 states whether c's dynamic writes share one row,
// so the step runs on the Sherman–Morrison path.
func tranStepHarness(tb testing.TB, c *Circuit, dt float64, rank1 bool) func() {
	op, _, err := c.OP(nil)
	if err != nil {
		tb.Fatal(err)
	}
	ws := c.realWS(modeTran)
	if ws.rank1OK != rank1 {
		tb.Fatalf("rank-1 path %v, want %v", ws.rank1OK, rank1)
	}
	e := &ws.e
	e.dt, e.xprev = dt, op.X
	var statefuls []stateful
	for _, d := range c.devices {
		if s, ok := d.(stateful); ok {
			statefuls = append(statefuls, s)
			s.reset(e)
		}
	}
	cur := append([]float64(nil), op.X...)
	var stats NewtonStats
	step := 0
	return func() {
		step++
		e.time = float64(step) * dt
		e.trapFlag = step > 1
		e.xprev = cur
		x, ok := c.tranNewton(ws, cur, &stats)
		if !ok {
			tb.Fatalf("step %d did not converge", step)
		}
		e.x = x
		for _, s := range statefuls {
			s.advance(e)
		}
		copy(cur, x)
	}
}

// switchTank is a class-E-like switch stage: the switch to ground is its
// one nonlinear device, so every dynamic write lands in the drain row.
func switchTank() *Circuit {
	c := New("switch-tank")
	c.AddV("VDD", "vdd", "0", DC(2.5))
	c.AddL("L1", "vdd", "drain", 10e-6)
	c.AddV("Vg", "gate", "0", Pulse{V1: 0, V2: 1.6, Rise: 1e-9, Fall: 1e-9, Width: 0.5e-6, Period: 1e-6})
	c.AddSwitch("S1", "drain", "0", "gate", "0", 0.1, 1e6, 1.0, 0.6)
	c.AddC("C1", "drain", "0", 10e-9)
	c.AddL("L2", "drain", "out", 1e-6)
	c.AddR("RL", "out", "0", 5)
	return c
}

// TestNewtonIterationZeroAlloc is the hard gate behind the benchmark
// numbers: the compiled kernel's hot bodies must not touch the heap — one
// Newton iteration (dynamic re-stamp, numeric refactorization on the
// frozen pattern, in-place solve), one AC frequency point, and one
// transient step on the refactoring and on the rank-1 path.
func TestNewtonIterationZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		body func(testing.TB) func()
	}{
		{"newton-iteration", func(tb testing.TB) func() {
			ws := iterationHarness(tb, false)
			i := 0
			return func() { i++; iterate(tb, ws, i) }
		}},
		{"ac-point", acPointHarness},
		{"tran-step", func(tb testing.TB) func() { return tranStepHarness(tb, benchNetlist(), 1e-9, false) }},
		{"tran-step-rank1", func(tb testing.TB) func() { return tranStepHarness(tb, switchTank(), 5e-9, true) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(200, tc.body(t)); allocs != 0 {
				t.Fatalf("%s allocated %.1f/op, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkNewtonIterationSparse measures one Newton iteration on the
// compiled sparse kernel: dynamic stamp, pattern-reusing refactorization,
// in-place solve.
func BenchmarkNewtonIterationSparse(b *testing.B) { benchIteration(b, false) }

// BenchmarkNewtonIterationDense measures the same iteration on the dense
// reference backend (fresh matrix, full LU) — the seed implementation's
// per-iteration cost.
func BenchmarkNewtonIterationDense(b *testing.B) { benchIteration(b, true) }

func benchIteration(b *testing.B, dense bool) {
	ws := iterationHarness(b, dense)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate(b, ws, i)
	}
}
