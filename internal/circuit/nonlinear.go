package circuit

import (
	"fmt"
	"math"
)

// ------------------------------------------------------------------- Diode

// Diode is a junction diode with the ideal exponential law
// I = Is·(exp(V/(n·Vt)) − 1), linearized per Newton iteration with SPICE's
// pnjlim junction-voltage limiting — without it Newton oscillates between
// the blocking and conducting branches of the exponential.
type Diode struct {
	Name   string
	NP, NM string
	Is     float64 // saturation current (default 1e-14 A)
	N      float64 // emission coefficient (default 1)

	np, nm int
	vLast  float64 // junction voltage used at the previous Newton iteration
}

// AddDiode adds a diode from anode np to cathode nm.
func (c *Circuit) AddDiode(name, np, nm string) *Diode {
	d := &Diode{Name: name, NP: np, NM: nm, Is: 1e-14, N: 1}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *Diode) Label() string { return d.Name }

func (d *Diode) init(c *Circuit) error {
	if d.Is <= 0 || d.N <= 0 {
		return fmt.Errorf("diode parameters must be positive")
	}
	d.np, d.nm = c.node(d.NP), c.node(d.NM)
	return nil
}

const thermalVoltage = 0.02585 // kT/q at 300 K

// iv returns the diode current and conductance at junction voltage v, with a
// linear continuation beyond the exponent clamp to keep Newton bounded.
func (d *Diode) iv(v float64) (i, g float64) {
	nvt := d.N * thermalVoltage
	const expMax = 40.0
	u := v / nvt
	if u > expMax {
		e := math.Exp(expMax)
		i = d.Is * (e*(1+(u-expMax)) - 1)
		g = d.Is * e / nvt
		return i, g
	}
	e := math.Exp(u)
	return d.Is * (e - 1), d.Is * e / nvt
}

// pnjlim is Nagel's junction-voltage limiter: it prevents the Newton
// iterate from overshooting along the diode exponential by pulling large
// forward-voltage steps back onto a logarithmic trajectory.
func pnjlim(vnew, vold, vt, vcrit float64) float64 {
	if vnew > vcrit && math.Abs(vnew-vold) > 2*vt {
		if vold > 0 {
			arg := 1 + (vnew-vold)/vt
			if arg > 0 {
				return vold + vt*math.Log(arg)
			}
			return vcrit
		}
		return vt * math.Log(vnew/vt)
	}
	return vnew
}

func (d *Diode) stamp(e *env) {
	if e.firstIter {
		d.vLast = 0
	}
	nvt := d.N * thermalVoltage
	vcrit := nvt * math.Log(nvt/(math.Sqrt2*d.Is))
	v := e.V(d.np) - e.V(d.nm)
	vlim := pnjlim(v, d.vLast, nvt, vcrit)
	d.vLast = vlim
	i, g := d.iv(vlim)
	g += e.gmin
	// Linearize about the limited voltage: the companion current keeps the
	// model exact at vlim while the conductance handles the local slope.
	ieq := i - g*vlim
	e.addY(d.np, d.nm, g)
	e.addCurrent(d.np, d.nm, ieq)
}

func (d *Diode) stampAC(e *acEnv) {
	v := e.Vop(d.np) - e.Vop(d.nm)
	_, g := d.iv(v)
	e.addY(d.np, d.nm, complex(g, 0))
}

// ------------------------------------------------------------------ MOSFET

// MOSType selects the channel polarity of a MOSFET.
type MOSType int

// MOSFET channel polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSParams holds square-law (SPICE level-1) model parameters.
type MOSParams struct {
	Type   MOSType
	W, L   float64 // channel width and length in meters
	KP     float64 // transconductance parameter µCox (A/V²)
	VT0    float64 // threshold voltage magnitude (positive for both types)
	Lambda float64 // channel-length modulation (1/V) at the given L
}

// DefaultNMOS returns representative 180 nm NMOS parameters.
func DefaultNMOS(w, l float64) MOSParams {
	return MOSParams{Type: NMOS, W: w, L: l, KP: 170e-6, VT0: 0.45, Lambda: 0.08 * 1e-6 / l}
}

// DefaultPMOS returns representative 180 nm PMOS parameters.
func DefaultPMOS(w, l float64) MOSParams {
	return MOSParams{Type: PMOS, W: w, L: l, KP: 60e-6, VT0: 0.45, Lambda: 0.10 * 1e-6 / l}
}

// MOSFET is a three-terminal square-law transistor (bulk tied to source).
// It contributes its drain current and the small-signal gm/gds; junction and
// gate capacitances are not built in (add explicit capacitors where they
// matter — the testbenches do).
type MOSFET struct {
	Name    string
	D, G, S string
	Params  MOSParams

	nd, ng, ns int
}

// AddMOS adds a MOSFET with the given parameters.
func (c *Circuit) AddMOS(name, d, g, s string, p MOSParams) *MOSFET {
	m := &MOSFET{Name: name, D: d, G: g, S: s, Params: p}
	c.AddDevice(m)
	return m
}

// Label implements Device.
func (m *MOSFET) Label() string { return m.Name }

func (m *MOSFET) init(c *Circuit) error {
	if m.Params.W <= 0 || m.Params.L <= 0 || m.Params.KP <= 0 {
		return fmt.Errorf("MOSFET W, L, KP must be positive")
	}
	m.nd, m.ng, m.ns = c.node(m.D), c.node(m.G), c.node(m.S)
	return nil
}

// Eval returns the drain current (flowing D→S for NMOS with positive Vds)
// and the partial derivatives gm = ∂Id/∂Vgs and gds = ∂Id/∂Vds, for terminal
// voltages vgs, vds expressed in the device's own polarity after the
// PMOS sign flip. See EvalTerminal for raw terminal voltages.
func (p MOSParams) Eval(vgs, vds float64) (id, gm, gds float64) {
	beta := p.KP * p.W / p.L
	vov := vgs - p.VT0
	if vov <= 0 {
		return 0, 0, 0
	}
	if vds < vov { // triode
		id = beta * (vov*vds - 0.5*vds*vds) * (1 + p.Lambda*vds)
		gm = beta * vds * (1 + p.Lambda*vds)
		gds = beta*(vov-vds)*(1+p.Lambda*vds) + beta*(vov*vds-0.5*vds*vds)*p.Lambda
		return id, gm, gds
	}
	// saturation
	id = 0.5 * beta * vov * vov * (1 + p.Lambda*vds)
	gm = beta * vov * (1 + p.Lambda*vds)
	gds = 0.5 * beta * vov * vov * p.Lambda
	return id, gm, gds
}

func (m *MOSFET) stamp(e *env) {
	vd, vg, vs := e.V(m.nd), e.V(m.ng), e.V(m.ns)
	sign := 1.0
	if m.Params.Type == PMOS {
		// Evaluate in the mirrored frame where the PMOS behaves as an NMOS.
		vd, vg, vs = -vd, -vg, -vs
		sign = -1
	}
	d, s := m.nd, m.ns
	swapped := vd < vs // symmetric device: the higher-potential terminal is the drain
	if swapped {
		vd, vs = vs, vd
		d, s = s, d
	}
	vgs, vds := vg-vs, vd-vs
	id, gm, gds := m.Params.Eval(vgs, vds)

	// Device-frame current id flows d→s. Negating all control voltages
	// (PMOS) flips the real current but also flips every Δv, so the
	// conductance stamps are polarity-invariant and only the constant
	// companion current changes sign:
	//   real ieq = −(id − gm·vgs − gds·vds)  for PMOS.
	ieq := id - gm*vgs - gds*vds
	if sign < 0 {
		ieq = -ieq
	}
	// The add-call sequence must not depend on the operating point (the
	// compiled stamp plan is positional), so both gm orientations are
	// stamped every iteration with the inactive one contributing zeros.
	gmFwd, gmRev := gm, 0.0
	if swapped {
		gmFwd, gmRev = 0.0, gm
	}
	e.addY(m.nd, m.ns, gds)
	e.addTransY(m.nd, m.ns, m.ng, m.ns, gmFwd)
	e.addTransY(m.ns, m.nd, m.ng, m.nd, gmRev)
	e.addCurrent(d, s, ieq)
	// gmin from drain and source to ground aids convergence (a zero gmin
	// stamps zeros, keeping the plan static).
	e.addY(m.nd, 0, e.gmin)
	e.addY(m.ns, 0, e.gmin)
}

func (m *MOSFET) stampAC(e *acEnv) {
	vd, vg, vs := e.Vop(m.nd), e.Vop(m.ng), e.Vop(m.ns)
	if m.Params.Type == PMOS {
		vd, vg, vs = -vd, -vg, -vs
	}
	swapped := vd < vs
	if swapped {
		vd, vs = vs, vd
	}
	_, gm, gds := m.Params.Eval(vg-vs, vd-vs)
	gmFwd, gmRev := gm, 0.0
	if swapped {
		gmFwd, gmRev = 0.0, gm
	}
	e.addY(m.nd, m.ns, complex(gds, 0))
	e.addTransY(m.nd, m.ns, m.ng, m.ns, complex(gmFwd, 0))
	e.addTransY(m.ns, m.nd, m.ng, m.nd, complex(gmRev, 0))
}

// ------------------------------------------------------------------ Switch

// Switch is a smooth voltage-controlled switch: its conductance moves
// log-linearly between 1/Roff and 1/Ron as the control voltage crosses the
// threshold window. This is the standard transistor abstraction for class-E
// power-amplifier analysis.
type Switch struct {
	Name         string
	N1, N2       string
	CtrlP, CtrlM string
	Ron, Roff    float64
	Von          float64 // control voltage at which the switch is ON
	Voff         float64 // control voltage at which the switch is OFF

	n1, n2, cp, cm int
	// Cached log-conductance endpoints, keyed on the resistances they were
	// computed from (Ron/Roff may be rewritten between runs by reusable
	// testbench sims).
	lgOn, lgOff, lgRon, lgRoff float64
}

// AddSwitch adds a voltage-controlled switch.
func (c *Circuit) AddSwitch(name, n1, n2, ctrlP, ctrlM string, ron, roff, von, voff float64) *Switch {
	d := &Switch{Name: name, N1: n1, N2: n2, CtrlP: ctrlP, CtrlM: ctrlM,
		Ron: ron, Roff: roff, Von: von, Voff: voff}
	c.AddDevice(d)
	return d
}

// Label implements Device.
func (d *Switch) Label() string { return d.Name }

func (d *Switch) init(c *Circuit) error {
	if d.Ron <= 0 || d.Roff <= 0 || d.Ron >= d.Roff {
		return fmt.Errorf("switch requires 0 < Ron < Roff")
	}
	//easybolint:ok floateq config validation: exact equality is the degenerate case being rejected
	if d.Von == d.Voff {
		return fmt.Errorf("switch requires Von != Voff")
	}
	d.n1, d.n2 = c.node(d.N1), c.node(d.N2)
	d.cp, d.cm = c.node(d.CtrlP), c.node(d.CtrlM)
	return nil
}

// conductance returns g(vc) and dg/dvc.
func (d *Switch) conductance(vc float64) (g, dg float64) {
	if math.Float64bits(d.lgRon) != math.Float64bits(d.Ron) || math.Float64bits(d.lgRoff) != math.Float64bits(d.Roff) {
		d.lgOn = math.Log(1 / d.Ron)
		d.lgOff = math.Log(1 / d.Roff)
		d.lgRon, d.lgRoff = d.Ron, d.Roff
	}
	lgOn, lgOff := d.lgOn, d.lgOff
	mid := 0.5 * (d.Von + d.Voff)
	width := d.Von - d.Voff // may be negative for inverted logic
	u := 2 * (vc - mid) / width
	th := math.Tanh(u)
	s := 0.5 * (1 + th)
	lg := lgOff + s*(lgOn-lgOff)
	g = math.Exp(lg)
	sech2 := 1 - th*th
	ds := sech2 / width // d s / d vc  (factor 2 * 1/2)
	dg = g * (lgOn - lgOff) * ds
	return g, dg
}

func (d *Switch) stamp(e *env) {
	vc := e.V(d.cp) - e.V(d.cm)
	v := e.V(d.n1) - e.V(d.n2)
	g, dg := d.conductance(vc)
	// i = g(vc)·v  →  linearize in both v and vc:
	// i ≈ g·v + (dg·v)·Δvc  with constant term −dg·v·vc0.
	e.addY(d.n1, d.n2, g)
	e.addTransY(d.n1, d.n2, d.cp, d.cm, dg*v)
	e.addCurrent(d.n1, d.n2, -dg*v*vc)
}

func (d *Switch) stampAC(e *acEnv) {
	vc := e.Vop(d.cp) - e.Vop(d.cm)
	g, _ := d.conductance(vc)
	e.addY(d.n1, d.n2, complex(g, 0))
}
