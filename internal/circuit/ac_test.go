package circuit

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestACRCLowpass(t *testing.T) {
	// First-order RC lowpass: fc = 1/(2πRC) = 1.59155 kHz.
	c := New("rc")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 100e-9)
	fc := 1 / (2 * math.Pi * 1e3 * 100e-9)
	res, err := c.AC(nil, []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	// Well below fc: |H| ≈ 1. At fc: |H| = 1/√2, phase -45°. Far above: ~ -40 dB/2dec.
	if got := cmplx.Abs(res.V(0, "out")); math.Abs(got-1) > 1e-3 {
		t.Fatalf("passband gain %v", got)
	}
	h := res.V(1, "out")
	if math.Abs(cmplx.Abs(h)-1/math.Sqrt2) > 1e-3 {
		t.Fatalf("|H(fc)| = %v, want 0.7071", cmplx.Abs(h))
	}
	if ph := cmplx.Phase(h) * 180 / math.Pi; math.Abs(ph+45) > 0.1 {
		t.Fatalf("phase(fc) = %v, want -45", ph)
	}
	if got := cmplx.Abs(res.V(2, "out")); math.Abs(got-0.01) > 1e-3 {
		t.Fatalf("stopband gain %v, want ~0.01", got)
	}
}

func TestACSeriesRLCResonance(t *testing.T) {
	// Series RLC: at resonance the full source voltage appears across R.
	c := New("rlc")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	l := c.AddL("L1", "in", "a", 1e-6)
	l.ESR = 1e-6
	c.AddC("C1", "a", "out", 1e-9)
	c.AddR("R1", "out", "0", 50)
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-6*1e-9))
	res, err := c.AC(nil, []float64{f0 / 10, f0, f0 * 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(res.V(1, "out")); math.Abs(got-1) > 1e-3 {
		t.Fatalf("|H(f0)| = %v, want 1", got)
	}
	if lo := cmplx.Abs(res.V(0, "out")); lo > 0.2 {
		t.Fatalf("off-resonance response too high: %v", lo)
	}
	if hi := cmplx.Abs(res.V(2, "out")); hi > 0.2 {
		t.Fatalf("off-resonance response too high: %v", hi)
	}
}

func TestACMOSAmplifierGain(t *testing.T) {
	// Common-source NMOS with current-source-free resistive load; small-signal
	// gain ≈ -gm·(RD ‖ ro).
	c := New("amp")
	c.AddV("VDD", "vdd", "0", DC(1.8))
	vg := c.AddV("VG", "g", "0", DC(0.9))
	vg.ACMag = 1
	c.AddR("RD", "vdd", "d", 10e3)
	c.AddMOS("M1", "d", "g", "0", DefaultNMOS(10e-6, 1e-6))
	op, _, err := c.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AC(op, []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultNMOS(10e-6, 1e-6)
	_, gm, gds := p.Eval(0.9, op.V("d"))
	want := -gm / (1.0/10e3 + gds)
	got := real(res.V(0, "d"))
	if math.Abs(got-want) > 1e-3*math.Abs(want) {
		t.Fatalf("gain = %v, want %v", got, want)
	}
	if im := imag(res.V(0, "d")); math.Abs(im) > 1e-6*math.Abs(want) {
		t.Fatalf("unexpected imaginary part %v", im)
	}
}

func TestACVCCSIntegrator(t *testing.T) {
	// gm into a capacitor: |H| = gm/(ωC), phase -90° relative to input.
	c := New("gmC")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	c.AddVCCS("G1", "0", "out", "in", "0", 1e-3)
	c.AddC("CL", "out", "0", 1e-9)
	f := 1e6
	res, err := c.AC(nil, []float64{f})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 / (2 * math.Pi * f * 1e-9)
	if got := cmplx.Abs(res.V(0, "out")); math.Abs(got-want) > 1e-3*want {
		t.Fatalf("|H| = %v, want %v", got, want)
	}
}

func TestLogSpace(t *testing.T) {
	f := LogSpace(10, 1000, 3)
	if len(f) != 3 || math.Abs(f[0]-10) > 1e-9 || math.Abs(f[1]-100) > 1e-6 || math.Abs(f[2]-1000) > 1e-6 {
		t.Fatalf("LogSpace = %v", f)
	}
	if got := LogSpace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("LogSpace n=1 = %v", got)
	}
}

func TestBodeMeasurements(t *testing.T) {
	// Two-pole system via two cascaded RC stages separated by a VCVS buffer.
	c := New("twopole")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	c.AddR("R1", "in", "a", 1e3)
	c.AddC("C1", "a", "0", 1e-6) // pole at 159 Hz
	c.AddVCVS("E1", "b", "0", "a", "0", 1000)
	c.AddR("R2", "b", "out", 1e3)
	c.AddC("C2", "out", "0", 1e-9) // pole at 159 kHz
	res, err := c.AC(nil, LogSpace(1, 1e8, 200))
	if err != nil {
		t.Fatal(err)
	}
	bode := BodeOf(res, "out")
	if math.Abs(bode.DCGainDB()-60) > 0.1 {
		t.Fatalf("DC gain = %v dB, want 60", bode.DCGainDB())
	}
	ugf, ok := bode.UnityGainFreq()
	if !ok {
		t.Fatal("no unity crossing found")
	}
	// GBW ≈ 1000·159 Hz = 159 kHz, but the second pole at the same frequency
	// pulls the crossing in: |H|=1 at ~110 kHz for this two-pole system.
	if ugf < 5e4 || ugf > 3e5 {
		t.Fatalf("UGF = %v, expected ≈1e5", ugf)
	}
}

func TestBodePhaseUnwrap(t *testing.T) {
	// Three cascaded poles accumulate -270°; unwrapping must keep the phase
	// monotone without ±360 jumps.
	c := New("threepole")
	v := c.AddV("V1", "in", "0", DC(0))
	v.ACMag = 1
	prev := "in"
	for i, node := range []string{"a", "b", "cc"} {
		c.AddR("R"+node, prev, node, 1e3)
		c.AddC("C"+node, node, "0", 1e-9)
		buf := "buf" + node
		if i < 2 {
			c.AddVCVS("E"+node, buf, "0", node, "0", 1)
			prev = buf
		}
	}
	res, err := c.AC(nil, LogSpace(1e3, 1e9, 120))
	if err != nil {
		t.Fatal(err)
	}
	bode := BodeOf(res, "cc")
	for k := 1; k < len(bode.PhaseDeg); k++ {
		if bode.PhaseDeg[k]-bode.PhaseDeg[k-1] > 90 {
			t.Fatalf("phase jump at %v Hz: %v -> %v", bode.Freq[k], bode.PhaseDeg[k-1], bode.PhaseDeg[k])
		}
	}
	last := bode.PhaseDeg[len(bode.PhaseDeg)-1]
	if last > -200 {
		t.Fatalf("three poles should approach -270°, got %v", last)
	}
}
