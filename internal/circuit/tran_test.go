package circuit

import (
	"math"
	"testing"
)

func TestTranRCStepResponse(t *testing.T) {
	// RC charging from a pulse: v(t) = V·(1 - exp(-t/RC)), RC = 1 ms.
	c := New("rcstep")
	c.AddV("V1", "in", "0", Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-9, Width: 1, Period: 2})
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 1e-6)
	res, err := c.Tran(TranOptions{TStop: 5e-3, TStep: 1e-5, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Node("out")
	for i, tt := range res.T {
		want := 1 - math.Exp(-tt/1e-3)
		if math.Abs(v[i]-want) > 0.01 {
			t.Fatalf("t=%v: v=%v want %v", tt, v[i], want)
		}
	}
	// Final value ~ fully charged.
	if v[len(v)-1] < 0.99 {
		t.Fatalf("final voltage %v", v[len(v)-1])
	}
}

func TestTranRLDecay(t *testing.T) {
	// Inductor L with initial current via DC OP, then source steps to 0:
	// di/dt decay through R. Use V source switching 1 -> 0.
	c := New("rl")
	c.AddV("V1", "in", "0", Pulse{V1: 1, V2: 0, Rise: 1e-9, Width: math.Inf(1)})
	c.AddR("R1", "in", "a", 100)
	l := c.AddL("L1", "a", "0", 10e-3)
	l.ESR = 1e-3
	// OP with V=1: i = 1/(100+0.001) ≈ 10 mA. After stepping to 0 the current
	// decays with tau = L/R = 100 µs.
	res, err := c.Tran(TranOptions{TStop: 500e-6, TStep: 0.5e-6})
	if err != nil {
		t.Fatal(err)
	}
	va := res.Node("a")
	// At t = tau, v_a = -i·R·exp(-1) ≈ ... check decay envelope via node a:
	// v_a(t) = -R·i(t) after the step (v_in = 0): magnitude decays e-fold per tau.
	idxTau := 0
	for i, tt := range res.T {
		if tt >= 100e-6 {
			idxTau = i
			break
		}
	}
	i0 := 1.0 / 100.001
	wantVa := -100 * i0 * math.Exp(-1)
	if math.Abs(va[idxTau]-wantVa) > 0.02 {
		t.Fatalf("v_a(tau) = %v, want %v", va[idxTau], wantVa)
	}
}

func TestTranSineSteadyState(t *testing.T) {
	// Sine through an RC lowpass driven at fc: amplitude 1/√2, phase -45°.
	c := New("rcsine")
	fc := 1 / (2 * math.Pi * 1e3 * 100e-9)
	c.AddV("V1", "in", "0", Sine{Amp: 1, Freq: fc})
	c.AddR("R1", "in", "out", 1e3)
	c.AddC("C1", "out", "0", 100e-9)
	period := 1 / fc
	res, err := c.Tran(TranOptions{TStop: 20 * period, TStep: period / 400, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	// Measure amplitude via Fourier coefficient at the fundamental.
	cf := FourierCoeff(res.T, res.Node("out"), fc, 1)
	amp := math.Hypot(real(cf), imag(cf))
	if math.Abs(amp-1/math.Sqrt2) > 0.01 {
		t.Fatalf("fundamental amplitude %v, want 0.707", amp)
	}
}

func TestTranEnergyConservationLC(t *testing.T) {
	// LC tank excited by initial capacitor charge: oscillation at f0 with
	// slowly decaying amplitude (trapezoidal rule is nearly lossless; ESR
	// introduces slight damping).
	c := New("lc")
	// Charge the cap via a source that steps to 0 through a small R.
	c.AddV("V1", "drive", "0", DC(1))
	c.AddR("Rchg", "drive", "a", 1e-1)
	c.AddC("C1", "a", "0", 1e-9)
	res0, _, err := c.OP(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res0.V("a")-1) > 1e-6 {
		t.Fatalf("initial charge %v", res0.V("a"))
	}
	// Build the free-running tank separately: start from UIC with the
	// drive held at zero.
	c2 := New("lc2")
	c2.AddV("V1", "drive", "0", DC(0))
	c2.AddR("Rb", "drive", "a", 1e9) // effectively disconnected
	cap := c2.AddC("C1", "a", "0", 1e-9)
	_ = cap
	l := c2.AddL("L1", "a", "0", 1e-6)
	l.ESR = 1e-3
	// Kick the tank with a current pulse.
	c2.AddI("Ik", "0", "a", Pulse{V1: 0, V2: 10e-3, Delay: 0, Rise: 1e-9, Width: 30e-9, Period: 1})
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-6*1e-9))
	res, err := c2.Tran(TranOptions{TStop: 10 / f0, TStep: 1 / (f0 * 200), UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	va := res.Node("a")
	// Count zero crossings to estimate frequency.
	crossings := 0
	for i := 1; i < len(va); i++ {
		if va[i-1] < 0 && va[i] >= 0 {
			crossings++
		}
	}
	// 10 periods -> about 10 rising crossings (+-2 for the kick transient).
	if crossings < 8 || crossings > 12 {
		t.Fatalf("crossings = %d, want ≈10", crossings)
	}
}

func TestTranSwitchSquareWave(t *testing.T) {
	// A switch driven by a pulse chops a DC source into a square wave.
	c := New("chopper")
	c.AddV("VDD", "vdd", "0", DC(5))
	c.AddV("VC", "ctl", "0", Pulse{V1: 0, V2: 1, Rise: 1e-9, Fall: 1e-9, Width: 0.5e-6 - 1e-9, Period: 1e-6})
	c.AddR("R1", "vdd", "out", 1e3)
	c.AddSwitch("S1", "out", "0", "ctl", "0", 1, 1e9, 0.9, 0.1)
	res, err := c.Tran(TranOptions{TStop: 5e-6, TStep: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Node("out")
	var lows, highs int
	for _, x := range v {
		if x < 0.05 {
			lows++
		}
		if x > 4.5 {
			highs++
		}
	}
	if lows < len(v)/4 || highs < len(v)/4 {
		t.Fatalf("square wave not chopping: lows=%d highs=%d of %d", lows, highs, len(v))
	}
}

// TestTranOptionsValidation: a non-positive, NaN or infinite TStop or
// TStep, a step count past maxTranSteps (TStop/TStep overflowing int among
// them) or an unknown record node is an error returned before the waveforms
// are allocated — never a makeslice panic.
func TestTranOptionsValidation(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		opts TranOptions
	}{
		{"TStop 0", TranOptions{TStop: 0, TStep: 1}},
		{"NaN TStop", TranOptions{TStop: nan, TStep: 1e-3}},
		{"+Inf TStop", TranOptions{TStop: inf, TStep: 1e-3}},
		{"-Inf TStop", TranOptions{TStop: -inf, TStep: 1e-3}},
		{"NaN TStep", TranOptions{TStop: 1, TStep: nan}},
		{"+Inf TStep", TranOptions{TStop: 1, TStep: inf}},
		{"steps overflow int", TranOptions{TStop: 1, TStep: 1e-300}},
		{"steps past the limit", TranOptions{TStop: 1, TStep: 1 / float64(maxTranSteps+1)}},
		{"unknown record node", TranOptions{TStop: 1, TStep: 1e-3, Record: []string{"nope"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New("rc")
			c.AddV("V1", "in", "0", DC(1))
			c.AddR("R1", "in", "out", 1e3)
			c.AddC("C1", "out", "0", 1e-6)
			if _, err := c.Tran(tc.opts); err == nil {
				t.Fatalf("%+v: no error", tc.opts)
			}
		})
	}
}

func TestWaveforms(t *testing.T) {
	p := Pulse{V1: -1, V2: 1, Delay: 1, Rise: 1, Fall: 1, Width: 2, Period: 10}
	cases := []struct{ t, want float64 }{
		{0, -1}, {1.5, 0}, {2.5, 1}, {4.5, 0}, {6, -1}, {11.5, 0},
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Pulse.At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	s := Sine{Offset: 1, Amp: 2, Freq: 1, Delay: 0.25}
	if got := s.At(0.1); got != 1 {
		t.Fatalf("Sine before delay = %v", got)
	}
	if got := s.At(0.5); math.Abs(got-3) > 1e-12 { // quarter period after delay
		t.Fatalf("Sine peak = %v, want 3", got)
	}
	if DC(3).At(99) != 3 {
		t.Fatal("DC wrong")
	}
}

func TestFourierCoeffPureSine(t *testing.T) {
	// x(t) = 2 sin(2π f t) + 0.5: c1 magnitude 2, c0 = 0.5.
	f0 := 1e3
	n := 2000
	ts := make([]float64, n)
	xs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 5e-6 / 5 // 1 µs steps, 2 periods total
		xs[i] = 2*math.Sin(2*math.Pi*f0*ts[i]) + 0.5
	}
	c1 := FourierCoeff(ts, xs, f0, 1)
	if math.Abs(math.Hypot(real(c1), imag(c1))-2) > 1e-3 {
		t.Fatalf("|c1| = %v, want 2", math.Hypot(real(c1), imag(c1)))
	}
	c0 := FourierCoeff(ts, xs, f0, 0)
	if math.Abs(real(c0)-0.5) > 1e-3 {
		t.Fatalf("c0 = %v, want 0.5", real(c0))
	}
	if FourierCoeff(ts[:1], xs[:1], f0, 1) != 0 {
		t.Fatal("degenerate input must be 0")
	}
}

func TestAveragePowerAndRMS(t *testing.T) {
	// P = V²/R for a sine: Vrms² / R = A²/2/R.
	f0 := 1e3
	n := 4001
	ts := make([]float64, n)
	vs := make([]float64, n)
	is := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 1e-6
		vs[i] = 3 * math.Sin(2*math.Pi*f0*ts[i])
		is[i] = vs[i] / 50
	}
	p := AveragePower(ts, vs, is, f0)
	want := 9.0 / 2 / 50
	if math.Abs(p-want) > 1e-3*want {
		t.Fatalf("P = %v, want %v", p, want)
	}
}
