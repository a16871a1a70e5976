package circuit

import (
	"math"
	"math/cmplx"
	"testing"
)

// The golden equivalence suite pins the compiled sparse kernel to the
// dense reference path at 1e-9 on every analysis and every device family:
// identical netlists run on both solvers and the solutions are compared
// point by point (voltages, waveforms, AC magnitude and phase).

const goldenTol = 1e-9

func closeAt(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if math.Abs(got-want) > goldenTol*(1+math.Abs(want)) {
		t.Fatalf("%s: got %.15g, want %.15g (Δ=%.3g)", what, got, want, got-want)
	}
}

// goldenPair builds the same netlist twice and marks one copy dense.
func goldenPair(build func() *Circuit) (sparse, dense *Circuit) {
	sparse = build()
	dense = build()
	dense.SetDenseSolver(true)
	return sparse, dense
}

// goldenCircuits enumerates netlists covering every device type and the
// nonlinear corners exercised by the coverage tests.
var goldenCircuits = map[string]func() *Circuit{
	"divider": func() *Circuit {
		c := New("divider")
		c.AddV("V1", "in", "0", DC(10))
		c.AddR("R1", "in", "mid", 1e3)
		c.AddR("R2", "mid", "0", 3e3)
		return c
	},
	"hard-diode": func() *Circuit {
		// 93 mA forward drive: the pnjlim corner from the coverage tests.
		c := New("hard-diode")
		c.AddV("V1", "in", "0", DC(10))
		c.AddR("R1", "in", "a", 100)
		c.AddDiode("D1", "a", "0")
		return c
	},
	"mos-amp": func() *Circuit {
		// NMOS common-source stage with a PMOS load: both polarities, and
		// the drain/source swap corner via the body of the PMOS mirror.
		c := New("mos-amp")
		c.AddV("VDD", "vdd", "0", DC(1.8))
		c.AddV("VIN", "g", "0", DC(0.9))
		c.AddMOS("M1", "d", "g", "0", DefaultNMOS(10e-6, 0.35e-6))
		c.AddMOS("M2", "d", "gb", "vdd", DefaultPMOS(20e-6, 0.35e-6))
		c.AddV("VB", "gb", "0", DC(0.9))
		c.AddR("RL", "d", "0", 100e3)
		return c
	},
	"controlled": func() *Circuit {
		c := New("controlled")
		c.AddV("V1", "in", "0", DC(1))
		c.AddVCVS("E1", "x", "0", "in", "0", 3)
		c.AddR("R1", "x", "y", 1e3)
		c.AddVCCS("G1", "0", "y", "in", "0", 1e-3)
		c.AddR("R2", "y", "0", 2e3)
		return c
	},
	"switch-divider": func() *Circuit {
		c := New("switch-divider")
		c.AddV("VC", "c", "0", DC(0.8))
		c.AddV("V1", "in", "0", DC(2))
		c.AddSwitch("S1", "in", "out", "c", "0", 1, 1e6, 1.0, 0.6)
		c.AddR("RL", "out", "0", 50)
		return c
	},
	"rlc": func() *Circuit {
		c := New("rlc")
		c.AddV("V1", "in", "0", Sine{Amp: 1, Freq: 1e6})
		c.AddR("R1", "in", "a", 50)
		c.AddL("L1", "a", "b", 10e-6)
		c.AddC("C1", "b", "0", 2.5e-9)
		c.AddR("R2", "b", "0", 1e3)
		return c
	},
}

func TestGoldenOP(t *testing.T) {
	for name, build := range goldenCircuits {
		t.Run(name, func(t *testing.T) {
			cs, cd := goldenPair(build)
			ss, _, errS := cs.OP(nil)
			sd, _, errD := cd.OP(nil)
			if (errS == nil) != (errD == nil) {
				t.Fatalf("OP convergence differs: sparse %v, dense %v", errS, errD)
			}
			if errS != nil {
				return
			}
			for _, node := range cs.NodeNames() {
				closeAt(t, name+" V("+node+")", ss.V(node), sd.V(node))
			}
		})
	}
}

func TestGoldenDCSweep(t *testing.T) {
	build := func() *Circuit {
		c := New("sweep")
		c.AddV("V1", "in", "0", DC(0))
		c.AddR("R1", "in", "a", 100)
		c.AddDiode("D1", "a", "0")
		c.AddMOS("M1", "a", "g", "0", DefaultNMOS(5e-6, 0.35e-6))
		c.AddV("VG", "g", "0", DC(0.7))
		return c
	}
	cs, cd := goldenPair(build)
	rs, err := cs.DCSweep("V1", 0, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := cd.DCSweep("V1", 0, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	vs, vd := rs.V("a"), rd.V("a")
	for k := range vs {
		closeAt(t, "sweep V(a)", vs[k], vd[k])
	}
}

func TestGoldenTran(t *testing.T) {
	for _, name := range []string{"rlc", "switch-divider", "hard-diode"} {
		build := goldenCircuits[name]
		t.Run(name, func(t *testing.T) {
			cs, cd := goldenPair(build)
			opts := TranOptions{TStop: 5e-6, TStep: 5e-9}
			rs, errS := cs.Tran(opts)
			rd, errD := cd.Tran(opts)
			if (errS == nil) != (errD == nil) {
				t.Fatalf("Tran convergence differs: sparse %v, dense %v", errS, errD)
			}
			if errS != nil {
				return
			}
			if len(rs.T) != len(rd.T) {
				t.Fatalf("sample counts differ: %d vs %d", len(rs.T), len(rd.T))
			}
			for _, node := range cs.NodeNames() {
				ws, wd := rs.Node(node), rd.Node(node)
				for k := range ws {
					if math.Abs(ws[k]-wd[k]) > goldenTol*(1+math.Abs(wd[k])) {
						t.Fatalf("%s V(%s) t=%g: sparse %.15g dense %.15g",
							name, node, rs.T[k], ws[k], wd[k])
					}
				}
			}
		})
	}
}

func TestGoldenAC(t *testing.T) {
	build := func() *Circuit {
		// Mixed reactive + nonlinear-linearized netlist with an AC drive.
		c := New("ac-mix")
		v := c.AddV("V1", "in", "0", DC(0.9))
		v.ACMag = 1
		c.AddR("R1", "in", "g", 1e3)
		c.AddC("Cg", "g", "0", 1e-12)
		c.AddMOS("M1", "d", "g", "0", DefaultNMOS(10e-6, 0.35e-6))
		c.AddV("VDD", "vdd", "0", DC(1.8))
		c.AddR("RD", "vdd", "d", 10e3)
		c.AddL("L1", "d", "out", 1e-6)
		c.AddC("CL", "out", "0", 1e-12)
		c.AddR("RL", "out", "0", 100e3)
		c.AddDiode("D1", "out", "0")
		return c
	}
	cs, cd := goldenPair(build)
	freqs := LogSpace(10, 10e9, 91)
	ops, _, err := cs.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	opd, _, err := cd.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cs.AC(ops, freqs)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := cd.AC(opd, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range freqs {
		for _, node := range cs.NodeNames() {
			gs, gd := rs.V(k, node), rd.V(k, node)
			if cmplx.Abs(gs-gd) > goldenTol*(1+cmplx.Abs(gd)) {
				t.Fatalf("AC V(%s) f=%g: sparse %v dense %v", node, freqs[k], gs, gd)
			}
			// Magnitude and phase individually, as the measurement layer
			// consumes them.
			closeAt(t, "mag "+node, cmplx.Abs(gs), cmplx.Abs(gd))
			if cmplx.Abs(gd) > 1e-12 {
				dphi := math.Abs(cmplx.Phase(gs) - cmplx.Phase(gd))
				if dphi > math.Pi {
					dphi = 2*math.Pi - dphi
				}
				if dphi > 1e-7 {
					t.Fatalf("AC phase V(%s) f=%g differs by %g rad", node, freqs[k], dphi)
				}
			}
		}
	}
}

// TestGoldenACSerialMatchesParallel pins the parallel sweep to the serial
// one bit-for-bit: each frequency's system is identical regardless of
// which worker solves it.
func TestGoldenACSerialMatchesParallel(t *testing.T) {
	build := goldenCircuits["rlc"]
	c1 := build()
	c2 := build()
	freqs := LogSpace(10, 1e9, 64)
	r1, err := c1.ACSweep(nil, freqs, ACOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.ACSweep(nil, freqs, ACOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := range freqs {
		for _, node := range c1.NodeNames() {
			if r1.V(k, node) != r2.V(k, node) {
				t.Fatalf("parallel sweep drifted at f=%g node %s", freqs[k], node)
			}
		}
	}
}

// TestWarmStartSkipsSecondIteration is the regression test for the
// iter-0 convergence gate: re-solving from an exact solution must cost
// exactly one factorization and one iteration, on both solver paths.
func TestWarmStartSkipsSecondIteration(t *testing.T) {
	for _, dense := range []bool{false, true} {
		c := New("warm")
		c.AddV("V1", "in", "0", DC(5))
		c.AddR("R1", "in", "a", 1e3)
		c.AddDiode("D1", "a", "0")
		c.SetDenseSolver(dense)
		sol, _, err := c.OP(nil)
		if err != nil {
			t.Fatal(err)
		}
		stats := &NewtonStats{}
		x, ok := c.newton(sol.X, opMaxIter, opGmin, 1.0, stats)
		if !ok {
			t.Fatalf("dense=%v: warm restart did not converge", dense)
		}
		if stats.Iterations != 1 {
			t.Fatalf("dense=%v: warm restart took %d iterations, want 1", dense, stats.Iterations)
		}
		if stats.Factors > 1 {
			t.Fatalf("dense=%v: warm restart performed %d factorizations, want ≤1", dense, stats.Factors)
		}
		for i := range x {
			closeAt(t, "warm x", x[i], sol.X[i])
		}
	}
}

// TestColdStartStillNeedsTwoIterations guards the other side of the gate:
// a zero start on a driven circuit must not be accepted on iteration 0.
func TestColdStartStillNeedsTwoIterations(t *testing.T) {
	c := New("cold")
	c.AddV("V1", "in", "0", DC(5))
	c.AddR("R1", "in", "a", 1e3)
	c.AddR("R2", "a", "0", 1e3)
	if err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	stats := &NewtonStats{}
	if _, ok := c.newton(make([]float64, c.unknowns), 1, opGmin, 1.0, stats); ok {
		t.Fatal("cold start converged in one iteration; residual gate broken")
	}
}

// TestFactorizationSharing verifies the two headline reuse wins: source
// stepping re-uses the numeric factors outright (only sources moved), and
// a linear transient factors exactly twice (once backward-Euler, once
// trapezoidal) over thousands of steps.
func TestFactorizationSharing(t *testing.T) {
	c := New("linear-tran")
	c.AddV("V1", "in", "0", Sine{Amp: 1, Freq: 1e6})
	c.AddR("R1", "in", "a", 50)
	c.AddC("C1", "a", "0", 1e-9)
	res, err := c.Tran(TranOptions{TStop: 100e-6, TStep: 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	// OP of the sine source (amplitude 0 at t=0) plus the transient: the
	// transient itself must add exactly 2 factorizations (BE + trap).
	cOP := New("linear-tran-op")
	cOP.AddV("V1", "in", "0", Sine{Amp: 1, Freq: 1e6})
	cOP.AddR("R1", "in", "a", 50)
	cOP.AddC("C1", "a", "0", 1e-9)
	_, opStats, err := cOP.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	tranFactors := res.Stats.Factors - opStats.Factors
	if tranFactors != 2 {
		t.Fatalf("linear transient performed %d factorizations, want 2 (BE + trapezoidal)", tranFactors)
	}
}

// TestDenseBackendIsTheReference pins what the dense backend is: no stamp
// plan, no sparse factorization (so no partial refactorization), neither
// of the rank-1 and rhs-only transient paths, and one fresh factorization
// per Newton iteration — on a circuit where the sparse kernel takes the
// rank-1 path.
func TestDenseBackendIsTheReference(t *testing.T) {
	c := switchTank()
	c.SetDenseSolver(true)
	res, err := c.Tran(TranOptions{TStop: 2e-6, TStep: 5e-9, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := c.wsTran
	if ws.A != nil || ws.lu != nil || ws.planStatic != nil || ws.planDyn != nil || len(ws.staticDevs) != 0 {
		t.Fatal("dense backend compiled a stamp plan or a sparse factorization")
	}
	if ws.rank1OK || ws.canRHSOnly {
		t.Fatalf("dense backend on a fast path: rank-1 %v, rhs-only %v", ws.rank1OK, ws.canRHSOnly)
	}
	if res.Stats.Factors != res.Stats.Iterations {
		t.Fatalf("dense transient: %d factorizations in %d iterations, want one each", res.Stats.Factors, res.Stats.Iterations)
	}
	sparse := switchTank()
	if _, err := sparse.Tran(TranOptions{TStop: 2e-6, TStep: 5e-9, UIC: true}); err != nil {
		t.Fatal(err)
	}
	if !sparse.wsTran.rank1OK {
		t.Fatal("the sparse kernel should take the rank-1 path on this circuit")
	}
}
