package circuit

import (
	"testing"

	"easybo/internal/linalg"
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

// sparseIterationHarness prepares a compiled workspace mid-solve so one
// iteration body (assemble + refactor + solve) can run repeatedly.
func sparseIterationHarness(tb testing.TB) (*Circuit, *realWorkspace, *env) {
	c := benchNetlist()
	if err := c.Compile(); err != nil {
		tb.Fatal(err)
	}
	ws := c.realWS(modeDC)
	e := &ws.e
	*e = env{mode: modeDC, c: c, gmin: 1e-12, srcScale: 1}
	ws.stampBase(e)
	e.x = ws.x
	// Prime: one full assemble+factor so the pattern and pivots exist.
	ws.assemble(e)
	if err := ws.factorFrom(0); err != nil {
		tb.Fatal(err)
	}
	return c, ws, e
}

// TestNewtonIterationZeroAlloc is the hard gate behind the benchmark
// numbers: the per-iteration body — dynamic re-stamp, numeric
// refactorization on the frozen pattern, in-place solve — must not touch
// the heap.
func TestNewtonIterationZeroAlloc(t *testing.T) {
	_, ws, e := sparseIterationHarness(t)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Perturb the iterate so the nonlinear devices re-linearize and the
		// Jacobian genuinely changes (no factor-skip shortcut).
		i++
		e.x[0] = 1e-7 * float64(i%13)
		ws.assemble(e)
		if from := ws.dirtyFrom(); from < ws.A.N {
			if err := ws.factorFrom(from); err != nil {
				t.Fatal(err)
			}
		}
		ws.lu.Solve(ws.b, ws.xNew)
	})
	if allocs != 0 {
		t.Fatalf("Newton iteration allocated %.1f/op, want 0", allocs)
	}
}

// BenchmarkNewtonIterationSparse measures one Newton iteration on the
// compiled sparse kernel: dynamic stamp, pattern-reusing refactorization,
// in-place solve.
func BenchmarkNewtonIterationSparse(b *testing.B) {
	_, ws, e := sparseIterationHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.x[0] = 1e-7 * float64(i%13)
		ws.assemble(e)
		if from := ws.dirtyFrom(); from < ws.A.N {
			if err := ws.factorFrom(from); err != nil {
				b.Fatal(err)
			}
		}
		ws.lu.Solve(ws.b, ws.xNew)
	}
}

// BenchmarkNewtonIterationDense measures the same iteration on the dense
// reference path (fresh matrix, full LU, allocating solve) — the seed
// implementation's per-iteration cost.
func BenchmarkNewtonIterationDense(b *testing.B) {
	c := benchNetlist()
	if err := c.Compile(); err != nil {
		b.Fatal(err)
	}
	n := c.unknowns
	x := make([]float64, n)
	e := &env{mode: modeDC, c: c, gmin: 1e-12, srcScale: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = 1e-7 * float64(i%13)
		e.A = linalg.NewMatrix(n, n)
		e.b = make([]float64, n)
		e.x = x
		for _, d := range c.devices {
			d.stamp(e)
		}
		for j := 0; j < len(c.names)-1; j++ {
			e.A.Add(j, j, nodeGmin)
		}
		out, err := linalg.SolveLinear(e.A, e.b)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != n {
			b.Fatal("bad solve")
		}
	}
}
