// Package circuit is a compact SPICE-like analog circuit simulator built on
// modified nodal analysis (MNA). It supports:
//
//   - nonlinear DC operating-point analysis (Newton-Raphson with gmin and
//     source stepping homotopies),
//   - complex-valued AC small-signal sweeps linearized at the operating point,
//   - transient analysis with trapezoidal integration (backward-Euler start),
//   - waveform measurements (Bode quantities, unity-gain frequency, phase
//     margin, discrete Fourier coefficients, average power).
//
// Devices include resistors, capacitors, inductors, independent V/I sources
// with DC, sine and pulse waveforms, controlled sources (VCVS, VCCS), diodes,
// square-law (level-1) MOSFETs, and smooth voltage-controlled switches.
//
// The package is the substrate that substitutes for the commercial HSPICE
// simulator used in the EasyBO paper; see DESIGN.md for the substitution
// rationale.
//
// All three analyses run on a sparse, compile-once simulation kernel: at
// Compile time every device's matrix writes are resolved to flat slot
// indices into a compressed sparse matrix (the stamp plan), and the LU
// factorization splits a one-time symbolic analysis from per-iteration
// numeric refactorization (internal/linalg/sparse). The real and complex
// systems share one stamping context and one compiled plan. SetDenseSolver
// swaps in the dense reference backend (a fresh dense matrix and a dense LU
// per solve) inside the same analysis loops, for golden equivalence tests
// and benchmark baselines.
//
// A caller that runs one netlist again and again owns its results:
// TranInto, ACSweepInto and BodeInto write into a result the caller keeps,
// reusing its storage whenever its capacity suffices, so a warm transient,
// a warm serial sweep and its Bode extraction allocate nothing. Tran,
// ACSweep and BodeOf are the same code into a new result.
package circuit

import (
	"errors"
	"fmt"
	"math"

	"easybo/internal/linalg/sparse"
)

// Ground is the reference node name. "gnd" is accepted as an alias.
const Ground = "0"

// Circuit is a netlist under construction. Add devices, then run OP, AC or
// Tran. A Circuit is not safe for concurrent use; each evaluation should
// build its own instance (construction is cheap).
type Circuit struct {
	Name    string
	devices []Device
	nodes   map[string]int // name -> node index; ground = 0
	names   []string       // node index -> name

	compiled   bool
	nBranch    int
	unknowns   int // (#nodes-1) + nBranch
	branchName []string

	// dense selects the dense reference backend instead of the compiled
	// sparse kernel; see SetDenseSolver.
	dense bool
	// Workspaces, built lazily per analysis kind on the selected backend
	// and invalidated whenever the topology recompiles or the backend
	// changes. Device parameter values may change freely between analyses
	// without invalidating them.
	wsDC   *realWorkspace
	wsTran *realWorkspace
	acPool []*acWorkspace
}

// SetDenseSolver switches the circuit onto the dense reference backend
// (true) or the compiled sparse kernel (false, the default). Both run in
// the same analysis loops and agree to tight tolerances on every supported
// analysis; the dense backend exists as the golden reference and benchmark
// baseline.
func (c *Circuit) SetDenseSolver(on bool) {
	c.dense = on
	c.wsDC, c.wsTran, c.acPool = nil, nil, nil
}

// New creates an empty circuit.
func New(name string) *Circuit {
	c := &Circuit{
		Name:  name,
		nodes: map[string]int{Ground: 0, "gnd": 0, "GND": 0},
		names: []string{Ground},
	}
	return c
}

// Device is any circuit element. Devices resolve their node indices during
// Compile and stamp themselves into the Newton iteration matrix (DC and
// transient) and, if they participate in small-signal analysis, into the
// complex AC matrix.
type Device interface {
	// Label returns the instance name used in error messages.
	Label() string
	// init resolves node references and allocates branch unknowns.
	init(c *Circuit) error
	// stamp adds the device's linearized companion model to e.A and e.b.
	stamp(e *env)
}

// acStamper is implemented by devices that participate in AC analysis.
type acStamper interface {
	stampAC(e *acEnv)
}

// stateful is implemented by devices that carry per-timestep state
// (capacitor/inductor companion currents). advance is called once after each
// accepted transient step; reset is called before any analysis starts.
type stateful interface {
	reset(e *env)
	advance(e *env)
}

// node returns the index for a node name, creating it on first use.
func (c *Circuit) node(name string) int {
	if idx, ok := c.nodes[name]; ok {
		return idx
	}
	idx := len(c.names)
	c.nodes[name] = idx
	c.names = append(c.names, name)
	return idx
}

// AddDevice appends a device built outside the convenience constructors.
func (c *Circuit) AddDevice(d Device) {
	c.devices = append(c.devices, d)
	c.compiled = false
}

// NodeNames returns the node names excluding ground, in index order.
func (c *Circuit) NodeNames() []string {
	out := make([]string, 0, len(c.names)-1)
	for _, n := range c.names[1:] {
		out = append(out, n)
	}
	return out
}

// allocBranch reserves a branch-current unknown (voltage sources, VCVS).
func (c *Circuit) allocBranch(label string) int {
	idx := c.nBranch
	c.nBranch++
	c.branchName = append(c.branchName, label)
	return idx
}

// Compile resolves all node references. It is called automatically by the
// analyses and is idempotent.
func (c *Circuit) Compile() error {
	if c.compiled {
		return nil
	}
	c.wsDC, c.wsTran, c.acPool = nil, nil, nil
	c.nBranch = 0
	c.branchName = c.branchName[:0]
	for _, d := range c.devices {
		if err := d.init(c); err != nil {
			return fmt.Errorf("circuit %q: device %s: %w", c.Name, d.Label(), err)
		}
	}
	c.unknowns = len(c.names) - 1 + c.nBranch
	if c.unknowns == 0 {
		return errors.New("circuit: no unknowns (empty netlist?)")
	}
	c.compiled = true
	return nil
}

// analysisMode distinguishes the Newton stamping context.
type analysisMode int

const (
	modeDC analysisMode = iota
	modeTran
)

// stamper is the matrix side of a stamping context, one type for the real
// (DC, transient) and the complex (AC) system. Matrix writes route through
// add, which targets one of three backends: a pattern recorder (workspace
// compilation), the compiled sparse values array (the fast path:
// plan-indexed writes, zero lookups), or the dense reference matrix. The
// right-hand side b is always a dense vector.
type stamper[T sparse.Scalar] struct {
	rec   *sparse.Builder
	plan  []int32 // slot per add call: recorded by rec, consumed by vals
	k     int     // plan cursor on the consume path
	vals  []T     // compiled sparse values backend
	dense []T     // dense reference backend, row-major n×n (nil otherwise)
	b     []T
	c     *Circuit
}

// add stamps v at matrix coordinate (i, j) through the active backend.
// Every device stamp must issue an identical add-call sequence regardless
// of its operating point — value-dependent positions would desynchronize
// the compiled plan (stamp zeros at inactive positions instead).
func (s *stamper[T]) add(i, j int, v T) {
	switch {
	case s.rec != nil:
		s.plan = append(s.plan, s.rec.Slot(i, j))
	case s.dense != nil:
		s.dense[i*s.c.unknowns+j] += v
	default:
		s.vals[s.plan[s.k]] += v
		s.k++
	}
}

// branchIndex maps a branch number to its position in the unknown vector.
func (s *stamper[T]) branchIndex(b int) int { return len(s.c.names) - 1 + b }

// addY stamps an admittance y between nodes i and j (node indices, 0=gnd).
func (s *stamper[T]) addY(i, j int, y T) {
	if i != 0 {
		s.add(i-1, i-1, y)
	}
	if j != 0 {
		s.add(j-1, j-1, y)
	}
	if i != 0 && j != 0 {
		s.add(i-1, j-1, -y)
		s.add(j-1, i-1, -y)
	}
}

// addTransY stamps a transadmittance: current y·(V(cp)-V(cm)) flowing from
// node i to node j (out of i, into j).
func (s *stamper[T]) addTransY(i, j, cp, cm int, y T) {
	s.addAt(i, cp, y)
	s.addAt(i, cm, -y)
	s.addAt(j, cp, -y)
	s.addAt(j, cm, y)
}

// addAt stamps v at node coordinates (row, col), skipping ground.
func (s *stamper[T]) addAt(row, col int, v T) {
	if row != 0 && col != 0 {
		s.add(row-1, col-1, v)
	}
}

// addBranch stamps the incidence of branch-current unknown bi, whose
// current leaves node np and enters node nm through the branch.
func (s *stamper[T]) addBranch(np, nm, bi int) {
	if np != 0 {
		s.add(np-1, bi, 1)
		s.add(bi, np-1, 1)
	}
	if nm != 0 {
		s.add(nm-1, bi, -1)
		s.add(bi, nm-1, -1)
	}
}

// addCurrent stamps a constant current i flowing from node a out into node b
// (that is, it leaves a and enters b).
func (s *stamper[T]) addCurrent(a, b int, i T) {
	if a != 0 {
		s.b[a-1] -= i
	}
	if b != 0 {
		s.b[b-1] += i
	}
}

// env is the DC and transient stamping context: the real stamper plus the
// analysis quantities a device's companion model reads.
type env struct {
	stamper[float64]
	mode      analysisMode
	time      float64 // time being solved for (transient); 0 in DC
	dt        float64 // current step size (transient)
	trapFlag  bool    // true => trapezoidal companion, false => backward Euler
	firstIter bool    // first Newton iteration of this solve (resets limiters)
	x         []float64
	xprev     []float64 // accepted solution at the previous timepoint
	gmin      float64
	srcScale  float64
}

// V returns the candidate voltage of node index n (0 = ground).
func (e *env) V(n int) float64 {
	if n == 0 {
		return 0
	}
	return e.x[n-1]
}

// Vprev returns the previous-timestep voltage of node index n.
func (e *env) Vprev(n int) float64 {
	if n == 0 || e.xprev == nil {
		return 0
	}
	return e.xprev[n-1]
}

// acEnv is the AC small-signal stamping context: the complex stamper plus
// the sweep frequency and the operating point devices linearize at.
type acEnv struct {
	stamper[complex128]
	omega float64
	op    []float64 // operating-point solution (unknown vector layout)
}

// Vop returns the operating-point voltage of node index n.
func (e *acEnv) Vop(n int) float64 {
	if n == 0 {
		return 0
	}
	return e.op[n-1]
}

// Solution is the result of a DC operating-point analysis.
type Solution struct {
	c *Circuit
	X []float64 // node voltages then branch currents
}

// V returns the voltage of a named node (0 for ground; NaN for unknown).
func (s *Solution) V(name string) float64 {
	idx, ok := s.c.nodes[name]
	if !ok {
		return math.NaN()
	}
	if idx == 0 {
		return 0
	}
	return s.X[idx-1]
}

// BranchCurrent returns the current through the named voltage source
// (positive current flows from the + terminal through the source to -,
// i.e. the conventional SPICE source current).
func (s *Solution) BranchCurrent(label string) (float64, bool) {
	for b, n := range s.c.branchName {
		if n == label {
			return s.X[len(s.c.names)-1+b], true
		}
	}
	return 0, false
}
