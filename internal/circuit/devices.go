package circuit

import (
	"errors"
	"fmt"
	"math"
)

// ---------------------------------------------------------------- Resistor

// Resistor is a linear two-terminal resistance.
type Resistor struct {
	Name   string
	N1, N2 string
	R      float64

	n1, n2 int
}

// AddR adds a resistor between n1 and n2.
func (c *Circuit) AddR(name, n1, n2 string, r float64) *Resistor {
	d := &Resistor{Name: name, N1: n1, N2: n2, R: r}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (r *Resistor) Label() string { return r.Name }

func (r *Resistor) init(c *Circuit) error {
	if r.R <= 0 {
		return fmt.Errorf("resistance must be positive, got %g", r.R)
	}
	r.n1, r.n2 = c.node(r.N1), c.node(r.N2)
	return nil
}

func (r *Resistor) stamp(e *env) { e.addY(r.n1, r.n2, 1/r.R) }

func (r *Resistor) stampRHS(*env) {}

func (r *Resistor) stampAC(e *acEnv) { e.addY(r.n1, r.n2, complex(1/r.R, 0)) }

// --------------------------------------------------------------- Capacitor

// Capacitor is a linear capacitance. In DC analysis it is an open circuit;
// in transient analysis it uses a trapezoidal (or backward-Euler) companion
// model; in AC analysis it is the admittance jωC.
type Capacitor struct {
	Name   string
	N1, N2 string
	C      float64

	n1, n2 int
	iPrev  float64 // companion state: current at the previous timepoint
	// Cached companion conductance, keyed on the quantities it was
	// computed from (dt and C may change between runs, trapFlag within
	// one).
	cgeq, cdt, cC float64
	ctrap         bool
}

// geqFor returns the companion conductance for the ambient step/method,
// recomputing the division only when dt, the integration method, or the
// capacitance changed.
func (d *Capacitor) geqFor(e *env) float64 {
	if math.Float64bits(e.dt) != math.Float64bits(d.cdt) || e.trapFlag != d.ctrap ||
		math.Float64bits(d.C) != math.Float64bits(d.cC) {
		if e.trapFlag {
			d.cgeq = 2 * d.C / e.dt
		} else {
			d.cgeq = d.C / e.dt
		}
		d.cdt, d.ctrap, d.cC = e.dt, e.trapFlag, d.C
	}
	return d.cgeq
}

// AddC adds a capacitor between n1 and n2.
func (c *Circuit) AddC(name, n1, n2 string, farads float64) *Capacitor {
	d := &Capacitor{Name: name, N1: n1, N2: n2, C: farads}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *Capacitor) Label() string { return d.Name }

func (d *Capacitor) init(c *Circuit) error {
	if d.C <= 0 {
		return fmt.Errorf("capacitance must be positive, got %g", d.C)
	}
	d.n1, d.n2 = c.node(d.N1), c.node(d.N2)
	return nil
}

func (d *Capacitor) companion(e *env) (geq, ieq float64) {
	vPrev := e.Vprev(d.n1) - e.Vprev(d.n2)
	geq = d.geqFor(e)
	if e.trapFlag {
		ieq = -geq*vPrev - d.iPrev
	} else { // backward Euler
		ieq = -geq * vPrev
	}
	return geq, ieq
}

func (d *Capacitor) stamp(e *env) {
	if e.mode != modeTran {
		return // open circuit at DC
	}
	geq, ieq := d.companion(e)
	e.addY(d.n1, d.n2, geq)
	// Companion current source i = geq*v + ieq; the constant part ieq flows
	// from n1 to n2.
	e.addCurrent(d.n1, d.n2, ieq)
}

func (d *Capacitor) stampRHS(e *env) {
	if e.mode != modeTran {
		return
	}
	_, ieq := d.companion(e)
	e.addCurrent(d.n1, d.n2, ieq)
}

func (d *Capacitor) stampAC(e *acEnv) {
	e.addY(d.n1, d.n2, complex(0, e.omega*d.C))
}

func (d *Capacitor) reset(*env) { d.iPrev = 0 }

func (d *Capacitor) advance(e *env) {
	v := e.V(d.n1) - e.V(d.n2)
	vPrev := e.Vprev(d.n1) - e.Vprev(d.n2)
	geq := d.geqFor(e)
	if e.trapFlag {
		d.iPrev = geq*(v-vPrev) - d.iPrev
	} else {
		d.iPrev = geq * (v - vPrev)
	}
}

// ---------------------------------------------------------------- Inductor

// Inductor is a linear inductance with a small series resistance (ESR). The
// ESR keeps the DC system nonsingular without a branch-current unknown; its
// default of 1 mΩ is negligible for the RF networks simulated here.
type Inductor struct {
	Name   string
	N1, N2 string
	L      float64
	ESR    float64

	n1, n2 int
	iPrev  float64 // inductor current at previous timepoint (n1 -> n2)
	vLPrev float64 // voltage across the pure inductance at previous timepoint
	// Cached companion coefficients, keyed on the quantities they were
	// computed from.
	ck, cgeq, cinv float64
	cdt, cL, cESR  float64
	ctrap, cPrimed bool
}

// coeffs returns the cached companion coefficients k, geq and
// 1/(1 + k·ESR), recomputing the divisions only when dt, the integration
// method, or the element values changed.
func (d *Inductor) coeffs(e *env) (k, geq, inv float64) {
	if !d.cPrimed || math.Float64bits(e.dt) != math.Float64bits(d.cdt) || e.trapFlag != d.ctrap ||
		math.Float64bits(d.L) != math.Float64bits(d.cL) || math.Float64bits(d.ESR) != math.Float64bits(d.cESR) {
		if e.trapFlag {
			d.ck = e.dt / (2 * d.L)
		} else {
			d.ck = e.dt / d.L
		}
		den := 1 + d.ck*d.ESR
		d.cgeq = d.ck / den
		d.cinv = 1 / den
		d.cdt, d.ctrap, d.cL, d.cESR = e.dt, e.trapFlag, d.L, d.ESR
		d.cPrimed = true
	}
	return d.ck, d.cgeq, d.cinv
}

// AddL adds an inductor between n1 and n2 with the default 1 mΩ ESR.
func (c *Circuit) AddL(name, n1, n2 string, henries float64) *Inductor {
	d := &Inductor{Name: name, N1: n1, N2: n2, L: henries, ESR: 1e-3}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *Inductor) Label() string { return d.Name }

func (d *Inductor) init(c *Circuit) error {
	if d.L <= 0 {
		return fmt.Errorf("inductance must be positive, got %g", d.L)
	}
	if d.ESR <= 0 {
		d.ESR = 1e-3
	}
	d.n1, d.n2 = c.node(d.N1), c.node(d.N2)
	return nil
}

// companion returns the trapezoidal (or backward-Euler) companion for L in
// series with ESR:
//
//	v = L di/dt + ESR·i
//	trap:  i_{n+1} = i_n + (dt/2L)(vL_{n+1} + vL_n),  vL = v - ESR·i
//
// solving for i_{n+1} as geq·v_{n+1} + ieq.
func (d *Inductor) companion(e *env) (geq, ieq float64) {
	k, geq, inv := d.coeffs(e)
	if e.trapFlag {
		ieq = (d.iPrev + k*d.vLPrev) * inv
	} else {
		ieq = d.iPrev * inv
	}
	return geq, ieq
}

func (d *Inductor) stamp(e *env) {
	if e.mode != modeTran {
		// DC: pure resistance ESR.
		e.addY(d.n1, d.n2, 1/d.ESR)
		return
	}
	geq, ieq := d.companion(e)
	e.addY(d.n1, d.n2, geq)
	e.addCurrent(d.n1, d.n2, ieq)
}

func (d *Inductor) stampRHS(e *env) {
	if e.mode != modeTran {
		return
	}
	_, ieq := d.companion(e)
	e.addCurrent(d.n1, d.n2, ieq)
}

func (d *Inductor) stampAC(e *acEnv) {
	z := complex(d.ESR, e.omega*d.L)
	e.addY(d.n1, d.n2, 1/z)
}

func (d *Inductor) reset(e *env) {
	// Start from the DC operating point: i = v/ESR.
	if e != nil && e.xprev != nil {
		v := e.Vprev(d.n1) - e.Vprev(d.n2)
		d.iPrev = v / d.ESR
		d.vLPrev = 0
	} else {
		d.iPrev = 0
		d.vLPrev = 0
	}
}

func (d *Inductor) advance(e *env) {
	v := e.V(d.n1) - e.V(d.n2)
	geq, ieq := d.companion(e)
	i := geq*v + ieq
	d.iPrev = i
	d.vLPrev = v - d.ESR*i
}

// ----------------------------------------------------------------- VSource

// VSource is an independent voltage source with a branch-current unknown.
// ACMag/ACPhase define its AC small-signal stimulus (0 for quiet sources).
type VSource struct {
	Name       string
	NP, NM     string
	Wave       Waveform
	ACMag      float64
	ACPhaseDeg float64

	np, nm int
	branch int
}

// AddV adds an independent voltage source from np (+) to nm (-).
func (c *Circuit) AddV(name, np, nm string, wave Waveform) *VSource {
	d := &VSource{Name: name, NP: np, NM: nm, Wave: wave}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *VSource) Label() string { return d.Name }

func (d *VSource) init(c *Circuit) error {
	if d.Wave == nil {
		return errors.New("voltage source requires a waveform")
	}
	d.np, d.nm = c.node(d.NP), c.node(d.NM)
	d.branch = c.allocBranch(d.Name)
	return nil
}

func (d *VSource) stamp(e *env) {
	bi := e.branchIndex(d.branch)
	e.addBranch(d.np, d.nm, bi)
	e.b[bi] += d.Wave.At(e.time) * e.srcScale
}

func (d *VSource) stampRHS(e *env) {
	e.b[e.branchIndex(d.branch)] += d.Wave.At(e.time) * e.srcScale
}

func (d *VSource) stampAC(e *acEnv) {
	bi := e.branchIndex(d.branch)
	e.addBranch(d.np, d.nm, bi)
	if d.ACMag != 0 {
		ph := d.ACPhaseDeg * (math.Pi / 180)
		s, c := math.Sincos(ph)
		e.b[bi] += complex(d.ACMag, 0) * complex(c, s)
	}
}

// ----------------------------------------------------------------- ISource

// ISource is an independent current source; positive current flows from NP
// through the source to NM (i.e. it is injected into NM).
type ISource struct {
	Name   string
	NP, NM string
	Wave   Waveform
	ACMag  float64

	np, nm int
}

// AddI adds an independent current source.
func (c *Circuit) AddI(name, np, nm string, wave Waveform) *ISource {
	d := &ISource{Name: name, NP: np, NM: nm, Wave: wave}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *ISource) Label() string { return d.Name }

func (d *ISource) init(c *Circuit) error {
	if d.Wave == nil {
		return errors.New("current source requires a waveform")
	}
	d.np, d.nm = c.node(d.NP), c.node(d.NM)
	return nil
}

func (d *ISource) stamp(e *env) {
	e.addCurrent(d.np, d.nm, d.Wave.At(e.time)*e.srcScale)
}

func (d *ISource) stampRHS(e *env) {
	e.addCurrent(d.np, d.nm, d.Wave.At(e.time)*e.srcScale)
}

func (d *ISource) stampAC(e *acEnv) {
	if d.ACMag != 0 {
		e.addCurrent(d.np, d.nm, complex(d.ACMag, 0))
	}
}

// -------------------------------------------------------------------- VCCS

// VCCS is a voltage-controlled current source (transconductance Gm):
// current Gm·(V(cp)-V(cm)) flows from OutP out into OutM.
type VCCS struct {
	Name         string
	OutP, OutM   string
	CtrlP, CtrlM string
	Gm           float64

	op, om, cp, cm int
}

// AddVCCS adds a transconductance element.
func (c *Circuit) AddVCCS(name, outP, outM, ctrlP, ctrlM string, gm float64) *VCCS {
	d := &VCCS{Name: name, OutP: outP, OutM: outM, CtrlP: ctrlP, CtrlM: ctrlM, Gm: gm}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *VCCS) Label() string { return d.Name }

func (d *VCCS) init(c *Circuit) error {
	d.op, d.om = c.node(d.OutP), c.node(d.OutM)
	d.cp, d.cm = c.node(d.CtrlP), c.node(d.CtrlM)
	return nil
}

func (d *VCCS) stamp(e *env) { e.addTransY(d.op, d.om, d.cp, d.cm, d.Gm) }

func (d *VCCS) stampRHS(*env) {}

func (d *VCCS) stampAC(e *acEnv) { e.addTransY(d.op, d.om, d.cp, d.cm, complex(d.Gm, 0)) }

// -------------------------------------------------------------------- VCVS

// VCVS is a voltage-controlled voltage source with gain Mu:
// V(OutP)-V(OutM) = Mu·(V(CtrlP)-V(CtrlM)).
type VCVS struct {
	Name         string
	OutP, OutM   string
	CtrlP, CtrlM string
	Mu           float64

	op, om, cp, cm int
	branch         int
}

// AddVCVS adds a voltage-controlled voltage source.
func (c *Circuit) AddVCVS(name, outP, outM, ctrlP, ctrlM string, mu float64) *VCVS {
	d := &VCVS{Name: name, OutP: outP, OutM: outM, CtrlP: ctrlP, CtrlM: ctrlM, Mu: mu}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *VCVS) Label() string { return d.Name }

func (d *VCVS) init(c *Circuit) error {
	d.op, d.om = c.node(d.OutP), c.node(d.OutM)
	d.cp, d.cm = c.node(d.CtrlP), c.node(d.CtrlM)
	d.branch = c.allocBranch(d.Name)
	return nil
}

func (d *VCVS) stamp(e *env) {
	bi := e.branchIndex(d.branch)
	e.addBranch(d.op, d.om, bi)
	if d.cp != 0 {
		e.add(bi, d.cp-1, -d.Mu)
	}
	if d.cm != 0 {
		e.add(bi, d.cm-1, d.Mu)
	}
}

func (d *VCVS) stampRHS(*env) {}

func (d *VCVS) stampAC(e *acEnv) {
	bi := e.branchIndex(d.branch)
	e.addBranch(d.op, d.om, bi)
	if d.cp != 0 {
		e.add(bi, d.cp-1, complex(-d.Mu, 0))
	}
	if d.cm != 0 {
		e.add(bi, d.cm-1, complex(d.Mu, 0))
	}
}
