package testbench

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"easybo/internal/circuit"
	"easybo/internal/objective"
)

// Fixed class-E testbench conditions (§IV-B, Fig. 5).
const (
	classEVdd   = 2.5    // drain supply (V), Vdd1 in the schematic
	classEVdrv  = 1.8    // driver swing (V), Vdd2 in the schematic
	classEF0    = 1e6    // switching frequency (Hz)
	classERL    = 1.2    // load resistance (Ω)
	classERsns  = 5e-3   // supply current sense resistance (Ω)
	classERoff  = 1e6    // switch off resistance (Ω)
	classEVon   = 1.0    // switch fully on above this gate voltage
	classEVoff  = 0.6    // switch fully off below this gate voltage
	ronPerMM    = 1.5    // switch on-resistance × width (Ω·mm)
	cossPerMM   = 0.3e-9 // switch output capacitance per width (F/mm)
	cgPerMM     = 0.4e-9 // switch gate capacitance per width (F/mm)
	rdrvPerMM   = 15.0   // driver output resistance × width (Ω·mm)
	stepsPerPer = 150    // transient resolution
	// measPeriods is the number of periods simulated after the start-up
	// periods, and the window VdrainPk is taken over. Pout, Pdc and Pdrive
	// do not use it: FourierCoeff and AveragePower integrate every whole
	// period of the record from t = 0, start-up transient included.
	measPeriods = 8
)

// ClassEVars names the 12 design variables of the class-E problem (§IV-B).
var ClassEVars = []string{
	"L1", "C1", "L2", "C2", "C3", "W1mm", "W2mm", "R0", "R1", "Vg", "C0", "L3",
}

// ClassEBounds returns the design box. Inductances in henries, capacitances
// in farads, resistances in ohms, switch/driver widths in millimeters, gate
// bias in volts.
func ClassEBounds() (lo, hi []float64) {
	lo = []float64{
		1e-6,    // L1 dc-feed
		2e-9,    // C1 shunt
		0.2e-6,  // L2 series filter L
		5e-9,    // C2 series filter C
		0.1e-9,  // C3 output matching shunt
		1,       // W1 switch width (mm)
		0.2,     // W2 driver width (mm)
		0.5,     // R0 gate series R
		100,     // R1 gate bias R
		0.3,     // Vg gate bias
		1e-9,    // C0 input coupling
		0.05e-6, // L3 output series L
	}
	hi = []float64{
		30e-6,
		60e-9,
		4e-6,
		100e-9,
		20e-9,
		30,
		10,
		20,
		10e3,
		1.1,
		50e-9,
		2e-6,
	}
	return lo, hi
}

// ClassEPerformance holds the measured metrics of one class-E evaluation.
type ClassEPerformance struct {
	PoutW    float64 // fundamental output power into RL (W)
	PAE      float64 // power-added efficiency (0..1)
	PdcW     float64 // DC supply power (W)
	PdriveW  float64 // drive power (W)
	VdrainPk float64 // peak drain voltage (V), the class-E stress metric
	Periods  int     // simulated periods (workload indicator)
	Valid    bool
}

// classEPeriods returns the number of start-up periods simulated before the
// measurement window: higher loaded Q rings longer. This is a genuine
// workload knob — it also drives the simulation-cost model.
func classEPeriods(x []float64) int {
	l2, l3 := x[2], x[11]
	q := 2 * math.Pi * classEF0 * (l2 + l3) / classERL
	return int(clampF(math.Round(4*q), 15, 60))
}

// classERecord lists the nodes a class-E transient records.
var classERecord = []string{"vdd", "vsw", "drain", "out", "drv", "gd"}

// ClassESim is a reusable class-E evaluator: the switching-PA netlist is
// built and compiled once (stamp plans, sparse pattern, symbolic
// factorization), and each Eval only rewrites device parameter values
// before re-running the transient into the waveforms and current buffers
// the sim owns, so a warm Eval allocates nothing. Not safe for concurrent
// use; give each worker its own instance or go through EvalClassE, which
// pools them.
type ClassESim struct {
	c                *circuit.Circuit
	l1, l2, l3       *circuit.Inductor
	sw               *circuit.Switch
	coss, c1, c2, c3 *circuit.Capacitor
	c0, cg           *circuit.Capacitor
	rdrv, r1         *circuit.Resistor
	vg               *circuit.DC // the gate bias source's value

	res        circuit.TranResult
	isup, idrv []float64 // supply and driver currents, one per timepoint
}

// NewClassESim builds the class-E topology with placeholder values.
func NewClassESim() *ClassESim {
	s := &ClassESim{}
	period := 1 / classEF0
	c := circuit.New("class-e")
	// Power train.
	c.AddV("VDD", "vdd", "0", circuit.DC(classEVdd))
	c.AddR("Rsns", "vdd", "vsw", classERsns)
	s.l1 = c.AddL("L1", "vsw", "drain", 1)
	s.sw = c.AddSwitch("S1", "drain", "0", "gate", "0", 1, classERoff, classEVon, classEVoff)
	s.coss = c.AddC("Coss", "drain", "0", 1)
	s.c1 = c.AddC("C1", "drain", "0", 1)
	// Series filter and matching network into the load.
	s.l2 = c.AddL("L2", "drain", "mid", 1)
	s.c2 = c.AddC("C2", "mid", "filt", 1)
	s.c3 = c.AddC("C3", "filt", "0", 1)
	s.l3 = c.AddL("L3", "filt", "out", 1)
	c.AddR("RL", "out", "0", classERL)
	// Gate-drive chain: square-wave driver, series resistance, AC coupling,
	// resistive bias to Vg.
	c.AddV("Vdrv", "drv", "0", circuit.Pulse{
		V1: 0, V2: classEVdrv,
		Rise: 0.05 * period, Fall: 0.05 * period,
		Width: 0.45 * period, Period: period,
	})
	s.rdrv = c.AddR("Rdrv", "drv", "gd", 1)
	s.c0 = c.AddC("C0", "gd", "gate", 1)
	s.vg = new(circuit.DC)
	c.AddV("VG", "vb", "0", s.vg)
	s.r1 = c.AddR("R1", "gate", "vb", 1)
	s.cg = c.AddC("Cg", "gate", "0", 1)
	s.c = c
	return s
}

// SetDense routes this sim's analyses through the dense reference solver
// (golden tests and benchmark baselines).
func (s *ClassESim) SetDense(on bool) { s.c.SetDenseSolver(on) }

// set rewrites the design-dependent device values at design point x.
func (s *ClassESim) set(x []float64) {
	l1, c1, l2, c2, c3 := x[0], x[1], x[2], x[3], x[4]
	w1, w2 := x[5], x[6]
	r0, r1, vg, c0, l3 := x[7], x[8], x[9], x[10], x[11]
	s.l1.L = l1
	s.sw.Ron = ronPerMM / w1
	s.coss.C = cossPerMM * w1
	s.c1.C = c1
	s.l2.L = l2
	s.c2.C = c2
	s.c3.C = c3
	s.l3.L = l3
	s.rdrv.R = r0 + rdrvPerMM/w2
	s.c0.C = c0
	*s.vg = circuit.DC(vg)
	s.r1.R = r1
	s.cg.C = cgPerMM * w1
}

// Eval runs the transient analysis and extracts Pout, PAE and the
// waveform diagnostics. Pout, Pdc and Pdrive are averaged over every whole
// period of the record, from t = 0 and so over the start-up transient too;
// VdrainPk is the peak over the last measPeriods periods.
func (s *ClassESim) Eval(x []float64) ClassEPerformance {
	var perf ClassEPerformance
	settle := classEPeriods(x)
	perf.Periods = settle + measPeriods
	period := 1 / classEF0
	s.set(x)
	res := &s.res
	err := s.c.TranInto(res, circuit.TranOptions{
		TStop:  float64(perf.Periods) * period,
		TStep:  period / stepsPerPer,
		UIC:    true,
		Record: classERecord,
	})
	if err != nil {
		return perf // Valid=false, zero powers
	}
	t := res.T
	vout := res.Node("out")

	// Fundamental output power into RL.
	cf := circuit.FourierCoeff(t, vout, classEF0, 1)
	vamp := cmplx.Abs(cf)
	perf.PoutW = vamp * vamp / (2 * classERL)

	// DC supply power via the sense resistor.
	vvdd := res.Node("vdd")
	vvsw := res.Node("vsw")
	s.isup = slices.Grow(s.isup[:0], len(t))[:len(t)]
	isup := s.isup
	for i := range isup {
		isup[i] = (vvdd[i] - vvsw[i]) / classERsns
	}
	perf.PdcW = circuit.AveragePower(t, vvdd, isup, classEF0)

	// Drive power delivered by the gate driver.
	vdrv := res.Node("drv")
	vgd := res.Node("gd")
	s.idrv = slices.Grow(s.idrv[:0], len(t))[:len(t)]
	idrv := s.idrv
	w2 := x[6]
	rdrv := x[7] + rdrvPerMM/w2
	for i := range idrv {
		idrv[i] = (vdrv[i] - vgd[i]) / rdrv
	}
	perf.PdriveW = circuit.AveragePower(t, vdrv, idrv, classEF0)

	// Peak drain stress over the measurement window.
	vdrain := res.Node("drain")
	start := t[len(t)-1] - measPeriods*period
	for i, tt := range t {
		if tt >= start && vdrain[i] > perf.VdrainPk {
			perf.VdrainPk = vdrain[i]
		}
	}
	if perf.PdcW > 1e-6 {
		pae := (perf.PoutW - math.Max(perf.PdriveW, 0)) / perf.PdcW
		perf.PAE = clampF(pae, -1, 1)
		perf.Valid = true
	}
	return perf
}

// classEPool recycles compiled sims across EvalClassE calls.
var classEPool = sync.Pool{New: func() any { return NewClassESim() }}

// EvalClassE evaluates the class-E design at x using a pooled reusable
// simulator. Safe for concurrent use.
func EvalClassE(x []float64) ClassEPerformance {
	s := classEPool.Get().(*ClassESim)
	defer classEPool.Put(s)
	return s.Eval(x)
}

// ClassEFOM is the paper's Eq. (11): 3·PAE + Pout (PAE as a fraction, Pout
// in watts). Failed transients score a large negative constant.
func ClassEFOM(perf ClassEPerformance) float64 {
	if !perf.Valid {
		return -5
	}
	return 3*perf.PAE + perf.PoutW
}

// classECost converts the genuine transient workload (periods × steps) plus
// a heavy-tailed timestep-control term into virtual HSPICE seconds. The
// model is calibrated to the paper's ≈52.7 s mean (450 sims ≈ 6 h 35 m) and
// reproduces its asynchronous savings band: expected sync-vs-async savings
// of ≈28.6 / 37.1 / 40.3 % at B = 5/10/15 versus the paper's measured
// 26.7 / 35.7 / 40.0 %.
func classECost(x []float64) float64 {
	steps := float64((classEPeriods(x) + measPeriods) * stepsPerPer)
	u := hashUniform(x) // stand-in for HSPICE's adaptive-step rejections
	return 26 + 15*(steps/9000) + 60*math.Pow(u, 4)
}

// ClassE returns the §IV-B benchmark as an optimization problem. Eval
// draws compiled simulators from a shared pool; NewEval hands a private
// sim to each worker of a parallel executor.
func ClassE() *objective.Problem {
	lo, hi := ClassEBounds()
	return &objective.Problem{
		Name: "classe",
		Lo:   lo, Hi: hi,
		Eval: func(x []float64) float64 { return ClassEFOM(EvalClassE(x)) },
		NewEval: func() func(x []float64) float64 {
			s := NewClassESim()
			return func(x []float64) float64 { return ClassEFOM(s.Eval(x)) }
		},
		Cost:      classECost,
		BestKnown: math.NaN(),
	}
}
