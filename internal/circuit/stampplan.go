package circuit

import (
	"fmt"
	"math"

	"easybo/internal/linalg"
	"easybo/internal/linalg/sparse"
)

// This file implements the compiled stamp plan: the per-analysis
// workspaces a Circuit builds once (per topology) and reuses on every
// Newton iteration, timestep and frequency point. One generic workspace
// serves the real (DC, transient) and the complex (AC) system.
//
// Compilation replays every device's stamp calls against a recording
// context whose add() registers each (row, col) target with a
// sparse.Builder and appends the resulting slot to a plan. At solve time
// the same stamp code runs against the values array, consuming the plan
// positionally — a pure indexed-write loop with no maps and no
// allocations. Devices are split into a static group (stamp values fixed
// within one Newton solve or sweep: linear elements, sources, companion
// conductances) stamped once per solve into a base snapshot, and a dynamic
// group (nonlinear devices re-linearized every iteration; reactive devices
// at every frequency) stamped on top of a copy of that snapshot.
//
// The dense reference backend is the same workspace without a plan: every
// device is dynamic, assemble stamps a fresh dense matrix, and each solve
// is a dense LU. It never uses a stamp plan, a partial refactorization, the
// rank-1 solve or the rhs-only restamp.

// nodeGmin is the tiny conductance to ground on every node that keeps
// floating nodes from making the matrix singular.
const nodeGmin = 1e-12

// dynamicReal reports whether a device's DC/transient stamp depends on the
// candidate solution vector (and must therefore re-stamp every Newton
// iteration). Everything else depends only on per-solve quantities (time,
// step size, integration method, companion state, source scaling).
func dynamicReal(d Device) bool {
	switch d.(type) {
	case *Diode, *MOSFET, *Switch:
		return true
	}
	return false
}

// rhsOnly is implemented by static devices that can stamp just their
// right-hand-side contribution. Within one transient run the static
// matrix entries depend only on the integration method, so the per-step
// static pass collapses to these calls plus a cached matrix snapshot.
type rhsOnly interface {
	stampRHS(e *env)
}

// dynamicAC reports whether a device's AC stamp depends on the sweep
// frequency. Nonlinear devices linearize at the fixed operating point, so
// only reactive elements vary across the sweep.
func dynamicAC(d Device) bool {
	switch d.(type) {
	case *Capacitor, *Inductor:
		return true
	}
	return false
}

// workspace is one analysis's system on its backend: the compiled stamp
// plan (sparse pattern, static and dynamic plans, node-diagonal slots),
// the static snapshot, and the factorization.
type workspace[T sparse.Scalar] struct {
	s         *stamper[T]    // the analysis context's matrix side
	stampDevs func([]Device) // stamps devices through the analysis context
	dense     bool           // the dense reference backend: no plan

	A          *sparse.MatrixOf[T]
	lu         *sparse.LUOf[T]
	planStatic []int32
	planDyn    []int32
	diagSlots  []int32 // node-diagonal regularization slots
	staticDevs []Device
	dynDevs    []Device

	baseVals  []T // matrix snapshot after the static pass
	baseB     []T // rhs snapshot after the static pass
	b         []T
	baseEpoch int // bumped on every full static pass
}

// init binds ws to its analysis context and splits devs into the static
// and dynamic passes. The dense reference stamps every device on every
// assemble, in netlist order, so all of them are dynamic there.
func (ws *workspace[T]) init(s *stamper[T], stampDevs func([]Device), devs []Device, dynamic func(Device) bool) {
	ws.s, ws.stampDevs, ws.dense = s, stampDevs, s.c.dense
	for _, d := range devs {
		if ws.dense || dynamic(d) {
			ws.dynDevs = append(ws.dynDevs, d)
		} else {
			ws.staticDevs = append(ws.staticDevs, d)
		}
	}
	ws.baseB = make([]T, s.c.unknowns)
	ws.b = make([]T, s.c.unknowns)
}

// compile records both passes' add calls on rec, a recording context with
// representative analysis values, builds the pattern and maps the plans
// onto its value slots.
func (ws *workspace[T]) compile(rec *stamper[T], stampRec func([]Device), build func(*sparse.Builder) (*sparse.MatrixOf[T], []int32)) {
	builder := sparse.NewBuilder(rec.c.unknowns)
	rec.rec = builder
	stampRec(ws.staticDevs)
	planStatic := rec.plan
	rec.plan = nil
	stampRec(ws.dynDevs)
	planDyn := rec.plan
	diag := make([]int32, len(rec.c.names)-1)
	for i := range diag {
		diag[i] = builder.Slot(i, i)
	}
	var remap []int32
	ws.A, remap = build(builder)
	ws.planStatic = remapPlan(planStatic, remap)
	ws.planDyn = remapPlan(planDyn, remap)
	ws.diagSlots = remapPlan(diag, remap)
	ws.lu = new(sparse.LUOf[T])
	ws.baseVals = make([]T, ws.A.NNZ())
}

func remapPlan(plan, remap []int32) []int32 {
	out := make([]int32, len(plan))
	for i, s := range plan {
		out[i] = remap[s]
	}
	return out
}

// stampBase runs the static pass: everything that is constant across the
// Newton iterations of one solve (or the points of one sweep) lands in
// baseVals/baseB. Call once per solve (per timestep in transient, per
// continuation stage in DC, per sweep chunk in AC).
func (ws *workspace[T]) stampBase() {
	clear(ws.baseVals)
	clear(ws.baseB)
	s := ws.s
	s.vals, s.b, s.plan, s.k = ws.baseVals, ws.baseB, ws.planStatic, 0
	ws.stampDevs(ws.staticDevs)
	ws.checkPlan("static")
	for _, sl := range ws.diagSlots {
		ws.baseVals[sl] += nodeGmin
	}
	ws.baseEpoch++
}

// assemble builds the full system at the context's current values. On the
// sparse kernel it copies the static snapshot and stamps the dynamic
// devices on top (zero allocations); on the dense reference it stamps
// every device into a fresh dense matrix and adds the node gmin.
func (ws *workspace[T]) assemble() {
	s := ws.s
	copy(ws.b, ws.baseB)
	s.b = ws.b
	if ws.dense {
		n := s.c.unknowns
		s.dense = make([]T, n*n)
		ws.stampDevs(ws.dynDevs)
		for i := 0; i < len(s.c.names)-1; i++ {
			s.dense[i*n+i] += nodeGmin
		}
		return
	}
	copy(ws.A.Val, ws.baseVals)
	s.vals, s.plan, s.k = ws.A.Val, ws.planDyn, 0
	ws.stampDevs(ws.dynDevs)
	ws.checkPlan("dynamic")
}

// checkPlan panics unless the pass just stamped consumed its whole plan.
func (ws *workspace[T]) checkPlan(pass string) {
	if s := ws.s; s.k != len(s.plan) {
		panic(fmt.Sprintf("circuit: %s stamp plan desync (%d calls, plan %d)", pass, s.k, len(s.plan)))
	}
}

// refactor factors the assembled matrix: a numeric refactorization of the
// elimination suffix [from, N) on the frozen pattern when possible,
// falling back to a full re-pivoting factorization when the frozen pivots
// have degenerated.
func (ws *workspace[T]) refactor(from int) error {
	var err error
	if ws.lu.Valid() {
		err = ws.lu.RefactorFrom(ws.A, from)
	}
	if !ws.lu.Valid() {
		err = ws.lu.Factor(ws.A)
	}
	return err
}

// realWorkspace is the DC or transient workspace: the shared workspace
// plus the factor-skip bookkeeping, the Newton buffers and the real-only
// transient fast paths.
type realWorkspace struct {
	workspace[float64]
	staticRHS []rhsOnly // rhs-only view of staticDevs (when canRHSOnly)

	lastVals  []float64 // values at the last successful factorization
	colOfSlot []int32   // value slot -> matrix column (dirty tracking)
	dynSlots  []int32   // unique slots written by the dynamic pass
	lastEpoch int       // baseEpoch behind lastVals (-1 = none)
	x         []float64 // Newton iterate
	xNew      []float64
	resid     []float64
	e         env // the stamping context

	// Transient static-matrix cache: within one Tran run the static
	// devices' matrix entries depend only on the integration method, so
	// the per-step static pass can be reduced to its rhs half.
	baseMatrixValid bool
	baseMatrixTrap  bool
	canRHSOnly      bool // every static device implements rhsOnly

	// Rank-1 fast path (transient): when every dynamic matrix write lands
	// in one row r, the assembled system is A_base + e_r·vᵀ and each
	// iteration solves against the factored static base with a
	// Sherman–Morrison correction — no per-iteration refactorization at
	// all. baseA aliases baseVals, so factoring it needs no copy.
	rank1OK     bool
	rank1Row    int32
	baseA       *sparse.Matrix
	baseLU      *sparse.LU
	zr          []float64 // A_base⁻¹ · e_rank1Row, refreshed with baseLU
	dynScratch  []float64 // per-dynSlot delta save for restoreFull
	baseLUEpoch int       // baseEpoch the base factorization belongs to
	rank1Primed bool
}

// stampReal stamps devices into e.
func stampReal(e *env) func([]Device) {
	return func(devs []Device) {
		for _, d := range devs {
			d.stamp(e)
		}
	}
}

// realWS returns the workspace for the given analysis mode, building it on
// first use. The workspace survives parameter changes; a topology
// recompile or a backend switch discards it.
func (c *Circuit) realWS(mode analysisMode) *realWorkspace {
	if mode == modeDC && c.wsDC != nil {
		return c.wsDC
	}
	if mode == modeTran && c.wsTran != nil {
		return c.wsTran
	}
	ws := c.buildRealWS(mode)
	if mode == modeDC {
		c.wsDC = ws
	} else {
		c.wsTran = ws
	}
	return ws
}

func (c *Circuit) buildRealWS(mode analysisMode) *realWorkspace {
	n := c.unknowns
	ws := &realWorkspace{x: make([]float64, n), xNew: make([]float64, n), resid: make([]float64, n)}
	ws.e = env{stamper: stamper[float64]{c: c}, mode: mode, gmin: nodeGmin, srcScale: 1}
	ws.init(&ws.e.stamper, stampReal(&ws.e), c.devices, dynamicReal)
	if ws.dense {
		return ws
	}
	ws.canRHSOnly = true
	for _, d := range ws.staticDevs {
		r, ok := d.(rhsOnly)
		if !ok {
			ws.canRHSOnly = false
			break
		}
		ws.staticRHS = append(ws.staticRHS, r)
	}
	rec := &env{
		stamper: stamper[float64]{c: c, b: make([]float64, n)},
		mode:    mode, dt: 1, trapFlag: true, firstIter: true, gmin: nodeGmin, srcScale: 1,
		x: make([]float64, n), xprev: make([]float64, n),
	}
	ws.compile(&rec.stamper, stampReal(rec), (*sparse.Builder).BuildReal)
	nnz := ws.A.NNZ()
	ws.lastVals = make([]float64, nnz)
	ws.colOfSlot = make([]int32, nnz)
	for j := 0; j < n; j++ {
		for p := ws.A.ColPtr[j]; p < ws.A.ColPtr[j+1]; p++ {
			ws.colOfSlot[p] = int32(j)
		}
	}
	// Columns the dynamic devices write move to the end of the elimination
	// order, so per-iteration refactorization redoes only a short suffix;
	// the deduplicated dynamic slots also bound the dirty comparison when
	// the static snapshot hasn't moved.
	seenSlot := make(map[int32]bool)
	seenCol := make(map[int32]bool)
	var hot []int32
	for _, s := range ws.planDyn {
		if !seenSlot[s] {
			seenSlot[s] = true
			ws.dynSlots = append(ws.dynSlots, s)
		}
		if c := ws.colOfSlot[s]; !seenCol[c] {
			seenCol[c] = true
			hot = append(hot, c)
		}
	}
	ws.lu.PreferLast(hot)
	ws.lastEpoch = -1
	// Rank-1 eligibility: all dynamic matrix writes confined to one row.
	if mode == modeTran && len(ws.dynSlots) > 0 {
		row := ws.A.Row[ws.dynSlots[0]]
		single := true
		for _, s := range ws.dynSlots[1:] {
			if ws.A.Row[s] != row {
				single = false
				break
			}
		}
		if single {
			ws.rank1OK = true
			ws.rank1Row = row
			ws.baseA = &sparse.Matrix{N: ws.A.N, ColPtr: ws.A.ColPtr, Row: ws.A.Row, Val: ws.baseVals}
			ws.baseLU = sparse.NewLU()
			ws.zr = make([]float64, n)
			ws.dynScratch = make([]float64, len(ws.dynSlots))
		}
	}
	return ws
}

// solve factors the assembled system where needed and solves it into x,
// reporting whether an LU factorization ran. The sparse kernel refactors
// only the elimination suffix that changed columns reach, and nothing when
// no value moved; the dense reference factors afresh on every call.
func (ws *realWorkspace) solve(x []float64) (factored bool, err error) {
	if ws.dense {
		return true, linalg.SolveLU(ws.e.dense, ws.b, x)
	}
	if from := ws.dirtyFrom(); from < ws.A.N {
		if err := ws.factorFrom(from); err != nil {
			return false, err
		}
		factored = true
	}
	ws.lu.Solve(ws.b, x)
	return factored, nil
}

// residualVanishes reports whether |A·x − b| is below tol on every row of
// the assembled system: the stamped linearization is exact at x, so this
// is the nonlinear KCL/KVL residual of the starting point.
func (ws *realWorkspace) residualVanishes(x []float64, tol float64) bool {
	if ws.dense {
		n := len(x)
		for i := range ws.resid {
			ws.resid[i] = linalg.Dot(ws.e.dense[i*n:(i+1)*n], x)
		}
	} else {
		ws.A.MulVec(x, ws.resid)
	}
	for i, r := range ws.resid {
		if math.Abs(r-ws.b[i]) > tol {
			return false
		}
	}
	return true
}

// dirtyFrom compares the assembled values against the ones behind the
// current factorization and returns the earliest elimination step touched
// by a changed column — N when nothing changed (the factorization can be
// reused outright), 0 when no factorization exists yet. When the static
// snapshot is the same one the factors were computed from, only the
// dynamic slots can differ, so the comparison touches a handful of
// entries instead of the whole pattern.
func (ws *realWorkspace) dirtyFrom() int {
	if !ws.lu.Valid() {
		return 0
	}
	from := ws.A.N
	vals := ws.A.Val
	// The factor-skip is bitwise by design: a column is clean only when its
	// entries are the identical bits the factors were computed from, so a
	// NaN poisoning a value can never be mistaken for "unchanged".
	if ws.lastEpoch == ws.baseEpoch {
		for _, s := range ws.dynSlots {
			if math.Float64bits(vals[s]) != math.Float64bits(ws.lastVals[s]) {
				if p := int(ws.lu.ColPos(ws.colOfSlot[s])); p < from {
					from = p
				}
			}
		}
		return from
	}
	for i, v := range vals {
		if math.Float64bits(v) != math.Float64bits(ws.lastVals[i]) {
			if p := int(ws.lu.ColPos(ws.colOfSlot[i])); p < from {
				from = p
			}
		}
	}
	return from
}

// factorFrom (re)factors the assembled matrix from elimination step from
// on (the stamp-plan ordering keeps nonlinear columns at the end, so this
// is typically a short tail). On success lastVals snapshots the values so
// unchanged re-stamps can skip factorization entirely.
func (ws *realWorkspace) factorFrom(from int) error {
	if err := ws.refactor(from); err != nil {
		return err
	}
	copy(ws.lastVals, ws.A.Val)
	ws.lastEpoch = ws.baseEpoch
	return nil
}

// stampBaseStep runs the static pass for one transient step, reusing the
// cached static matrix when only the right-hand side can have moved (same
// run, same integration method). Tran invalidates the cache at entry, so
// device parameter edits between runs are always picked up.
func (ws *realWorkspace) stampBaseStep() {
	if ws.canRHSOnly && ws.baseMatrixValid && ws.baseMatrixTrap == ws.e.trapFlag {
		clear(ws.baseB)
		ws.e.b = ws.baseB
		for _, d := range ws.staticRHS {
			d.stampRHS(&ws.e)
		}
		return
	}
	ws.stampBase()
	ws.baseMatrixValid = true
	ws.baseMatrixTrap = ws.e.trapFlag
}

// primeRank1 factors the static base matrix and refreshes the unit-column
// solve behind the Sherman–Morrison correction. Returns false (disabling
// the fast path until the next base change) when the base alone is
// singular.
func (ws *realWorkspace) primeRank1() bool {
	if err := ws.baseLU.Factor(ws.baseA); err != nil {
		ws.rank1Primed = false
		return false
	}
	clear(ws.resid)
	ws.resid[ws.rank1Row] = 1
	ws.baseLU.Solve(ws.resid, ws.zr)
	ws.baseLUEpoch = ws.baseEpoch
	ws.rank1Primed = true
	return true
}

// assembleDyn is the rank-1 counterpart of assemble: instead of copying the
// whole base snapshot it zeroes only the dynamic slots and stamps the
// dynamic devices, so A.Val holds the dynamic *deltas* at dynSlots (other
// slots are stale — restoreFull reconstructs the complete matrix when the
// fast path must fall back).
func (ws *realWorkspace) assembleDyn() {
	for _, s := range ws.dynSlots {
		ws.A.Val[s] = 0
	}
	copy(ws.b, ws.baseB)
	e := &ws.e
	e.vals, e.b, e.plan, e.k = ws.A.Val, ws.b, ws.planDyn, 0
	ws.stampDevs(ws.dynDevs)
	ws.checkPlan("dynamic")
}

// restoreFull turns the delta-state left by assembleDyn into the complete
// assembled matrix (base snapshot plus dynamic contributions), without
// re-running any device stamp (stamps may mutate limiter state and must
// run exactly once per iteration).
func (ws *realWorkspace) restoreFull() {
	for i, s := range ws.dynSlots {
		ws.dynScratch[i] = ws.A.Val[s]
	}
	copy(ws.A.Val, ws.baseVals)
	for i, s := range ws.dynSlots {
		ws.A.Val[s] += ws.dynScratch[i]
	}
}

// solveRank1 solves the assembled system via the Sherman–Morrison identity
//
//	(A_base + e_r·vᵀ)⁻¹·b = y − (vᵀy)/(1 + vᵀz)·z,  y = A_base⁻¹b, z = A_base⁻¹e_r
//
// writing the solution into x. A.Val carries the dynamic deltas (v) at
// dynSlots, as left by assembleDyn. Returns false when the correction is
// ill-conditioned (|1 + vᵀz| tiny) and the caller should refactor instead.
func (ws *realWorkspace) solveRank1(x []float64) bool {
	ws.baseLU.Solve(ws.b, x)
	num, den := 0.0, 1.0
	for _, s := range ws.dynSlots {
		delta := ws.A.Val[s]
		if delta == 0 {
			continue
		}
		c := ws.colOfSlot[s]
		num += delta * x[c]
		den += delta * ws.zr[c]
	}
	if math.Abs(den) < 1e-9 {
		return false
	}
	alpha := num / den
	if alpha != 0 {
		for i := range x {
			x[i] -= alpha * ws.zr[i]
		}
	}
	return true
}

// acWorkspace is the AC workspace. Each sweep worker owns one, reusing it
// across its chunk of frequency points: the frequency-independent entries
// are stamped once per chunk, each point copies that snapshot and
// re-stamps only the reactive devices.
type acWorkspace struct {
	workspace[complex128]
	e acEnv // the stamping context
}

// stampAC stamps devices, every one an acStamper, into e.
func stampAC(e *acEnv) func([]Device) {
	return func(devs []Device) {
		for _, d := range devs {
			d.(acStamper).stampAC(e)
		}
	}
}

func (c *Circuit) buildACWS() *acWorkspace {
	var devs []Device
	for _, d := range c.devices {
		if _, ok := d.(acStamper); ok {
			devs = append(devs, d)
		}
	}
	ws := &acWorkspace{e: acEnv{stamper: stamper[complex128]{c: c}}}
	ws.init(&ws.e.stamper, stampAC(&ws.e), devs, dynamicAC)
	if !ws.dense {
		n := c.unknowns
		rec := &acEnv{stamper: stamper[complex128]{c: c, b: make([]complex128, n)}, omega: 1, op: make([]float64, n)}
		ws.compile(&rec.stamper, stampAC(rec), (*sparse.Builder).BuildComplex)
	}
	return ws
}

// acWorkspaces returns w AC workspaces from the circuit's pool, growing it
// as needed.
func (c *Circuit) acWorkspaces(w int) []*acWorkspace {
	for len(c.acPool) < w {
		c.acPool = append(c.acPool, c.buildACWS())
	}
	return c.acPool[:w]
}

// solve factors the assembled system and solves it into x: a refactor on
// the frozen pattern (a full re-pivoting factorization when the frequency
// has shifted the pivot balance) on the sparse kernel, a dense LU on the
// reference.
func (ws *acWorkspace) solve(x []complex128) error {
	if ws.dense {
		return linalg.SolveLU(ws.e.dense, ws.b, x)
	}
	if err := ws.refactor(0); err != nil {
		return err
	}
	ws.lu.Solve(ws.b, x)
	return nil
}
