package testbench

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"easybo/internal/circuit"
	"easybo/internal/stats"
)

func randomPoint(rng *rand.Rand, lo, hi []float64) []float64 {
	x := make([]float64, len(lo))
	for j := range x {
		x[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
	}
	return x
}

func TestOpAmpBoundsShape(t *testing.T) {
	lo, hi := OpAmpBounds()
	if len(lo) != 10 || len(hi) != 10 || len(OpAmpVars) != 10 {
		t.Fatal("op-amp must have 10 design variables (§IV-A)")
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			t.Fatalf("empty box in dim %d", i)
		}
	}
}

func TestClassEBoundsShape(t *testing.T) {
	lo, hi := ClassEBounds()
	if len(lo) != 12 || len(hi) != 12 || len(ClassEVars) != 12 {
		t.Fatal("class-E must have 12 design variables (§IV-B)")
	}
	for i := range lo {
		if !(lo[i] < hi[i]) {
			t.Fatalf("empty box in dim %d", i)
		}
	}
}

func TestOpAmpFiniteEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := OpAmpBounds()
	p := OpAmp()
	for i := 0; i < 100; i++ {
		x := randomPoint(rng, lo, hi)
		y, cost := p.EvalWithCost(x)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("non-finite FOM at %v", x)
		}
		if cost <= 0 || math.IsNaN(cost) {
			t.Fatalf("bad cost %v", cost)
		}
	}
}

func TestOpAmpDeterministic(t *testing.T) {
	lo, hi := OpAmpBounds()
	x := randomPoint(rand.New(rand.NewSource(2)), lo, hi)
	p := OpAmp()
	y1, c1 := p.EvalWithCost(x)
	y2, c2 := p.EvalWithCost(x)
	if y1 != y2 || c1 != c2 {
		t.Fatal("op-amp evaluation must be deterministic")
	}
}

func TestOpAmpKnownGoodDesignIsCompetent(t *testing.T) {
	// A hand-sized design: moderate input pair, long loads for gain, Miller
	// cap with zero-nulling resistor near 1/gm6.
	x := []float64{
		40e-6, 0.5e-6, // W12, L12
		20e-6, 0.8e-6, // W34, L34
		40e-6, 0.5e-6, // W5, L5 (tail ≈ 160 µA)
		120e-6,     // W6
		120e-6,     // W7
		2e-12, 500, // Cc, Rz
	}
	perf := EvalOpAmp(x)
	if !perf.Valid {
		t.Fatalf("textbook design reported invalid: %+v", perf)
	}
	if perf.GainDB < 30 {
		t.Fatalf("gain %v dB too low for a two-stage design", perf.GainDB)
	}
	if perf.UGFMHz < 1 {
		t.Fatalf("UGF %v MHz too low", perf.UGFMHz)
	}
	if perf.PMDeg < 0 || perf.PMDeg > 180 {
		t.Fatalf("PM %v out of range", perf.PMDeg)
	}
	if f := OpAmpFOM(perf); f < 100 {
		t.Fatalf("FOM %v too low for a competent design", f)
	}
}

func TestOpAmpMonotonicities(t *testing.T) {
	// More Miller capacitance at fixed everything else must not raise the
	// unity-gain frequency (dominant-pole compression).
	base := []float64{
		40e-6, 0.5e-6, 20e-6, 0.8e-6, 40e-6, 0.5e-6, 120e-6, 120e-6, 1e-12, 500,
	}
	small := EvalOpAmp(base)
	big := append([]float64(nil), base...)
	big[8] = 8e-12
	bigPerf := EvalOpAmp(big)
	if bigPerf.UGFMHz > small.UGFMHz*1.05 {
		t.Fatalf("UGF should fall with Cc: %v -> %v MHz", small.UGFMHz, bigPerf.UGFMHz)
	}
	// A wider input pair raises gm1 (∝ √W) at unchanged output conductances
	// and unchanged bias points everywhere, so DC gain must rise.
	wide := append([]float64(nil), base...)
	wide[0] = 90e-6
	if wp := EvalOpAmp(wide); wp.GainDB <= small.GainDB {
		t.Fatalf("gain should rise with input-pair W: %v -> %v dB", small.GainDB, wp.GainDB)
	}
}

func TestOpAmpFOMGuards(t *testing.T) {
	// No unity crossing: FOM must be the degraded gain-only score.
	p := OpAmpPerformance{GainDB: -20, UGFMHz: 0}
	if f := OpAmpFOM(p); f != 1.2*(-20)-200 {
		t.Fatalf("degraded FOM = %v", f)
	}
	// Clamps hold for absurd raw metrics.
	crazy := OpAmpPerformance{GainDB: 1e6, UGFMHz: 10, PMDeg: 1e6}
	if f := OpAmpFOM(crazy); f > 1.2*200+10*10+1.6*120+1 {
		t.Fatalf("clamp failed: %v", f)
	}
}

func TestClassEFiniteAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo, hi := ClassEBounds()
	p := ClassE()
	for i := 0; i < 5; i++ {
		x := randomPoint(rng, lo, hi)
		y, cost := p.EvalWithCost(x)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("non-finite FOM at %v", x)
		}
		if cost <= 0 {
			t.Fatalf("bad cost %v", cost)
		}
		y2, _ := p.EvalWithCost(x)
		if y != y2 {
			t.Fatal("class-E evaluation must be deterministic")
		}
	}
}

func TestClassENearNominalDesignWorks(t *testing.T) {
	// Near the analytic class-E values for f0=1 MHz, RL=1.2 Ω:
	// C1 ≈ 0.1836/(ωR) ≈ 24 nF, series L2C2 resonant near f0 with Q≈5.
	x := []float64{
		15e-6,   // L1 generous choke
		24e-9,   // C1
		0.95e-6, // L2
		30e-9,   // C2 (slightly above resonance for class-E detuning)
		2e-9,    // C3
		15,      // W1 mm (Ron 0.1 Ω)
		5,       // W2 mm
		1,       // R0
		2e3,     // R1
		0.8,     // Vg
		20e-9,   // C0
		0.2e-6,  // L3
	}
	perf := EvalClassE(x)
	if !perf.Valid {
		t.Fatalf("nominal class-E invalid: %+v", perf)
	}
	if perf.PoutW < 0.2 {
		t.Fatalf("nominal Pout %v W too low", perf.PoutW)
	}
	if perf.PAE < 0.3 {
		t.Fatalf("nominal PAE %v too low", perf.PAE)
	}
	if perf.VdrainPk < classEVdd {
		t.Fatalf("drain peak %v must exceed VDD in class-E operation", perf.VdrainPk)
	}
	if f := ClassEFOM(perf); f < 1 {
		t.Fatalf("nominal FOM %v too low", f)
	}
}

func TestClassEFOMGuards(t *testing.T) {
	if ClassEFOM(ClassEPerformance{Valid: false}) != -5 {
		t.Fatal("invalid runs must score -5")
	}
	p := ClassEPerformance{Valid: true, PAE: 0.5, PoutW: 1.0}
	if f := ClassEFOM(p); math.Abs(f-2.5) > 1e-12 {
		t.Fatalf("FOM = %v, want 2.5", f)
	}
}

func TestCostModelsCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(name string, lo, hi []float64, cost func([]float64) float64,
		meanLo, meanHi, cvLo, cvHi float64) {
		var cs []float64
		for i := 0; i < 2000; i++ {
			cs = append(cs, cost(randomPoint(rng, lo, hi)))
		}
		s := stats.Summarize(cs)
		cv := s.Std / s.Mean
		if s.Mean < meanLo || s.Mean > meanHi {
			t.Fatalf("%s mean cost %v outside [%v, %v]", name, s.Mean, meanLo, meanHi)
		}
		if cv < cvLo || cv > cvHi {
			t.Fatalf("%s cost CV %v outside [%v, %v]", name, cv, cvLo, cvHi)
		}
		if s.Worst <= 0 {
			t.Fatalf("%s has non-positive cost", name)
		}
	}
	lo, hi := OpAmpBounds()
	check("opamp", lo, hi, opampCost, 35, 45, 0.05, 0.15)
	lo2, hi2 := ClassEBounds()
	check("classe", lo2, hi2, classECost, 45, 60, 0.2, 0.45)
}

func TestHashUniformProperties(t *testing.T) {
	// Deterministic, in [0,1), and sensitive to any coordinate change.
	x := []float64{1, 2, 3}
	u1 := hashUniform(x)
	u2 := hashUniform(x)
	if u1 != u2 {
		t.Fatal("hashUniform must be deterministic")
	}
	if u1 < 0 || u1 >= 1 {
		t.Fatalf("hashUniform out of range: %v", u1)
	}
	y := []float64{1, 2, 3.0000001}
	if hashUniform(y) == u1 {
		t.Fatal("hashUniform should be sensitive to input changes")
	}
	// Roughly uniform over many points.
	rng := rand.New(rand.NewSource(5))
	var lowHalf int
	const n = 5000
	for i := 0; i < n; i++ {
		if hashUniform([]float64{rng.Float64(), rng.Float64()}) < 0.5 {
			lowHalf++
		}
	}
	if lowHalf < n/2-3*40 || lowHalf > n/2+3*40 {
		t.Fatalf("hashUniform looks biased: %d of %d below 0.5", lowHalf, n)
	}
}

func TestClassEPeriodsWorkload(t *testing.T) {
	lo, hi := ClassEBounds()
	// Low-Q network: short settle. High-Q: long settle, clamped at 60.
	xLow := randomPoint(rand.New(rand.NewSource(6)), lo, hi)
	xLow[2], xLow[11] = lo[2], lo[11]
	if p := classEPeriods(xLow); p != 15 {
		t.Fatalf("low-Q periods = %d, want clamp 15", p)
	}
	xHigh := append([]float64(nil), xLow...)
	xHigh[2], xHigh[11] = hi[2], hi[11]
	if p := classEPeriods(xHigh); p != 60 {
		t.Fatalf("high-Q periods = %d, want clamp 60", p)
	}
}

// TestClassEPoutSpansTheWholeRecord pins what Pout measures: the
// fundamental's power over every whole period of the transient from t = 0,
// start-up included, not over the last measPeriods periods that VdrainPk
// looks at. It reads the same bits as FourierCoeff over the sim's whole
// record, and it lies below the tail-window value, by about 2 %, 8 % and 16 %
// at these three points of the box.
func TestClassEPoutSpansTheWholeRecord(t *testing.T) {
	lo, hi := ClassEBounds()
	pout := func(t, v []float64) float64 {
		a := cmplx.Abs(circuit.FourierCoeff(t, v, classEF0, 1))
		return a * a / (2 * classERL)
	}
	for _, f := range []float64{0.3, 0.5, 0.7} {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + f*(hi[i]-lo[i])
		}
		s := NewClassESim()
		perf := s.Eval(x)
		tt, vout := s.res.T, s.res.Node("out")
		whole := pout(tt, vout)
		if math.Float64bits(perf.PoutW) != math.Float64bits(whole) {
			t.Fatalf("f=%g: Pout %v, whole-record Fourier %v", f, perf.PoutW, whole)
		}
		start := tt[len(tt)-1] - measPeriods/classEF0
		i0 := 0
		for tt[i0] < start-0.5*(tt[1]-tt[0]) {
			i0++
		}
		tail := pout(tt[i0:], vout[i0:])
		t.Logf("f=%g: Pout %.4f W over the whole record, %.4f W over the last %d periods (%+.1f %%)",
			f, whole, tail, measPeriods, 100*(whole-tail)/tail)
		if math.Abs(whole-tail) < 1e-3*tail {
			t.Fatalf("f=%g: whole-record and tail-window Pout agree (%v, %v): the pin cannot tell them apart", f, whole, tail)
		}
	}
}
