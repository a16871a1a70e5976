package circuit

import (
	"math"
	"testing"
)

func TestOPDiodePnjlimConvergence(t *testing.T) {
	// A hard-driven diode (93 mA forward) makes unlimited Newton oscillate
	// between the blocking and conducting branches of the exponential. The
	// pnjlim junction limiter must make it converge within a modest budget;
	// this is a regression guard for the limiter.
	c := New("hard")
	c.AddV("V1", "in", "0", DC(10))
	c.AddR("R1", "in", "a", 100)
	c.AddDiode("D1", "a", "0")
	sol, stats, err := c.OP(nil)
	if err != nil {
		t.Fatalf("diode OP failed: %v", err)
	}
	if stats.Iterations > 40 {
		t.Fatalf("pnjlim regression: %d iterations for a single diode", stats.Iterations)
	}
	va := sol.V("a")
	if va < 0.4 || va > 1.0 {
		t.Fatalf("diode node %v implausible", va)
	}
	// KCL still exact at the limited linearization point.
	d := &Diode{Is: 1e-14, N: 1}
	id, _ := d.iv(va)
	approx(t, "KCL", id, (10-va)/100, 1e-6)
}

func TestOPNoConvergenceError(t *testing.T) {
	// MaxIter = 1 can never satisfy the two-iteration convergence check, so
	// every continuation strategy must fail and report ErrNoConvergence.
	c := New("never")
	c.AddV("V1", "in", "0", DC(5))
	c.AddR("R1", "in", "a", 1e3)
	c.AddDiode("D1", "a", "0")
	_, _, err := c.OP(&OPOptions{MaxIter: 1})
	if err == nil {
		t.Fatal("expected convergence failure")
	}
}

func TestPhase180AndStableUGF(t *testing.T) {
	// Three identical cascaded poles at 1 kHz with DC gain 8: the phase lag
	// hits 180° at f√3 ≈ 1.732 kHz where each pole contributes 60°. The
	// magnitude there is 8/(1+3)^{3/2} = 1 exactly — the classic marginal
	// oscillator. Make the gain larger so the 0 dB crossing happens beyond
	// the 180° frequency and the stable-UGF cap engages.
	c := New("3pole")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	prev := "in"
	gain := 30.0
	for i, node := range []string{"a", "b", "c3"} {
		buf := "x" + node
		c.AddVCVS("E"+node, buf, "0", prev, "0", gain)
		gain = 1 // only the first stage has gain
		c.AddR("R"+node, buf, node, 1e3)
		c.AddC("C"+node, node, "0", 159.155e-9) // pole at 1 kHz
		prev = node
		_ = i
	}
	res, err := c.AC(nil, LogSpace(10, 1e6, 240))
	if err != nil {
		t.Fatal(err)
	}
	bode := BodeOf(res, "c3")
	f180, ok := bode.Phase180Freq()
	if !ok {
		t.Fatal("lag must reach 180° with three poles")
	}
	if math.Abs(f180-math.Sqrt(3)*1e3) > 100 {
		t.Fatalf("f180 = %v, want ≈1732", f180)
	}
	ugf, _ := bode.UnityGainFreq()
	if ugf <= f180 {
		t.Fatalf("test setup wrong: ugf %v should exceed f180 %v", ugf, f180)
	}
	fStar, pm, ok := bode.StableUnityGainFreq()
	if !ok {
		t.Fatal("stable UGF must exist")
	}
	if fStar != f180 || pm != 0 {
		t.Fatalf("cap not applied: f*=%v pm=%v (f180=%v)", fStar, pm, f180)
	}
}

func TestStableUGFUncappedSinglePole(t *testing.T) {
	// One pole: lag never reaches 180°, so the stable UGF equals the plain
	// unity crossing with a healthy margin.
	c := New("1pole")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	c.AddVCVS("E1", "x", "0", "in", "0", 100)
	c.AddR("R1", "x", "out", 1e3)
	c.AddC("C1", "out", "0", 159.155e-9)
	res, err := c.AC(nil, LogSpace(10, 10e6, 200))
	if err != nil {
		t.Fatal(err)
	}
	bode := BodeOf(res, "out")
	if _, ok := bode.Phase180Freq(); ok {
		t.Fatal("single pole cannot reach 180° lag")
	}
	fStar, pm, ok := bode.StableUnityGainFreq()
	if !ok {
		t.Fatal("stable UGF must exist")
	}
	ugf, _ := bode.UnityGainFreq()
	if fStar != ugf {
		t.Fatalf("uncapped f* %v != ugf %v", fStar, ugf)
	}
	if pm < 85 || pm > 95 {
		t.Fatalf("single-pole margin %v, want ≈90", pm)
	}
}

func TestACCurrentSource(t *testing.T) {
	// AC current source into a resistor: V = I·R at any frequency.
	c := New("iac")
	i := c.AddI("I1", "0", "a", DC(0))
	i.ACMag = 2e-3
	c.AddR("R1", "a", "0", 500)
	res, err := c.AC(nil, []float64{1e3, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Freqs {
		v := res.V(k, "a")
		if math.Abs(real(v)-1.0) > 1e-6 || math.Abs(imag(v)) > 1e-9 {
			t.Fatalf("V(a) = %v, want 1+0i", v)
		}
	}
}

func TestNodeAccessors(t *testing.T) {
	c := New("acc")
	c.AddR("R1", "x", "y", 1e3)
	c.AddR("R2", "y", "0", 1e3)
	if err := c.Compile(); err != nil {
		t.Fatal(err)
	}
	names := c.NodeNames()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("NodeNames = %v", names)
	}
	// Labels exist for diagnostics.
	for _, d := range []Device{
		&Resistor{Name: "r"}, &Capacitor{Name: "c"}, &Inductor{Name: "l"},
		&VSource{Name: "v"}, &ISource{Name: "i"}, &VCCS{Name: "g"},
		&VCVS{Name: "e"}, &Diode{Name: "d"}, &MOSFET{Name: "m"}, &Switch{Name: "s"},
	} {
		if d.Label() == "" {
			t.Fatal("empty label")
		}
	}
}

func TestMOSParamValidation(t *testing.T) {
	c := New("badmos")
	c.AddMOS("M1", "d", "g", "0", MOSParams{W: -1, L: 1e-6, KP: 1e-4})
	if err := c.Compile(); err == nil {
		t.Fatal("negative W must fail")
	}
	c2 := New("badsw")
	c2.AddSwitch("S1", "a", "0", "c", "0", 10, 5, 1, 0) // Ron >= Roff
	if err := c2.Compile(); err == nil {
		t.Fatal("Ron >= Roff must fail")
	}
	c3 := New("badsw2")
	c3.AddSwitch("S1", "a", "0", "c", "0", 1, 1e9, 1, 1) // Von == Voff
	if err := c3.Compile(); err == nil {
		t.Fatal("Von == Voff must fail")
	}
	c4 := New("badd")
	d := c4.AddDiode("D1", "a", "0")
	d.Is = -1
	if err := c4.Compile(); err == nil {
		t.Fatal("negative Is must fail")
	}
}
