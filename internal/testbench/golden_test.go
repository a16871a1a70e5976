package testbench

import (
	"math"
	"math/rand"
	"testing"
)

// The testbench golden suite pins the sparse kernel to the dense reference
// on the paper's two benchmark circuits: identical design points evaluated
// through both solver paths must agree to 1e-9 on every reported metric
// (and therefore bitwise on every optimization decision derived from
// them).

func goldenClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: sparse %.15g, dense %.15g (Δ=%.3g)", what, got, want, got-want)
	}
}

// goldenPoints draws deterministic in-bounds design points, always
// including the box midpoint.
func goldenPoints(lo, hi []float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, 0, n)
	mid := make([]float64, len(lo))
	for i := range mid {
		mid[i] = 0.5 * (lo[i] + hi[i])
	}
	pts = append(pts, mid)
	for len(pts) < n {
		x := make([]float64, len(lo))
		for i := range x {
			x[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		pts = append(pts, x)
	}
	return pts
}

func TestGoldenOpAmpSparseVsDense(t *testing.T) {
	lo, hi := OpAmpBounds()
	sp := NewOpAmpSim()
	dn := NewOpAmpSim()
	dn.SetDense(true)
	for i, x := range goldenPoints(lo, hi, 6, 42) {
		ps := sp.Eval(x)
		pd := dn.Eval(x)
		if ps.Valid != pd.Valid {
			t.Fatalf("point %d: validity differs (sparse %v, dense %v)", i, ps.Valid, pd.Valid)
		}
		goldenClose(t, "GainDB", ps.GainDB, pd.GainDB)
		goldenClose(t, "UGFMHz", ps.UGFMHz, pd.UGFMHz)
		goldenClose(t, "PMDeg", ps.PMDeg, pd.PMDeg)
		goldenClose(t, "FOM", OpAmpFOM(ps), OpAmpFOM(pd))
	}
}

func TestGoldenClassESparseVsDense(t *testing.T) {
	if testing.Short() {
		t.Skip("transient golden sweep is seconds-long")
	}
	lo, hi := ClassEBounds()
	sp := NewClassESim()
	dn := NewClassESim()
	dn.SetDense(true)
	for i, x := range goldenPoints(lo, hi, 3, 7) {
		ps := sp.Eval(x)
		pd := dn.Eval(x)
		if ps.Valid != pd.Valid {
			t.Fatalf("point %d: validity differs (sparse %v, dense %v)", i, ps.Valid, pd.Valid)
		}
		goldenClose(t, "PoutW", ps.PoutW, pd.PoutW)
		goldenClose(t, "PAE", ps.PAE, pd.PAE)
		goldenClose(t, "PdcW", ps.PdcW, pd.PdcW)
		goldenClose(t, "VdrainPk", ps.VdrainPk, pd.VdrainPk)
		goldenClose(t, "FOM", ClassEFOM(ps), ClassEFOM(pd))
	}
}

// TestOpAmpFOMIndependentOfACWorkers pins the figure of merit bit for bit
// across the AC sweep's worker counts. The sweep itself is not bitwise
// independent of them (circuit's TestGoldenACSerialMatchesParallel); the
// FOM is, and it is what the optimizer sees: OpAmp's Eval sweeps on
// GOMAXPROCS workers, its NewEval on one, and the benchmark digests must
// not depend on the box.
func TestOpAmpFOMIndependentOfACWorkers(t *testing.T) {
	lo, hi := OpAmpBounds()
	sims := map[int]*OpAmpSim{}
	for _, w := range []int{1, 2, 3, 4, 8} {
		sims[w] = NewOpAmpSim()
		sims[w].ACWorkers = w
	}
	for i, x := range goldenPoints(lo, hi, 200, 7) {
		want := OpAmpFOM(sims[1].Eval(x))
		for _, w := range []int{2, 3, 4, 8} {
			if got := OpAmpFOM(sims[w].Eval(x)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("point %d: FOM %v on %d AC workers, %v on one", i, got, w, want)
			}
		}
	}
}

// TestSimReuseMatchesFreshSim guards the parameter-update path: a sim that
// has evaluated other points must reproduce a fresh sim's result exactly.
func TestSimReuseMatchesFreshSim(t *testing.T) {
	lo, hi := OpAmpBounds()
	pts := goldenPoints(lo, hi, 5, 99)
	reused := NewOpAmpSim()
	for _, x := range pts {
		reused.Eval(x)
	}
	for i, x := range pts {
		fresh := NewOpAmpSim()
		pf := fresh.Eval(x)
		pr := reused.Eval(x)
		if pf.GainDB != pr.GainDB || pf.UGFMHz != pr.UGFMHz || pf.PMDeg != pr.PMDeg {
			t.Fatalf("point %d: reused sim drifted: %+v vs %+v", i, pr, pf)
		}
	}

	clo, chi := ClassEBounds()
	cpts := goldenPoints(clo, chi, 2, 5)
	creused := NewClassESim()
	for _, x := range cpts {
		creused.Eval(x)
	}
	for i, x := range cpts {
		fresh := NewClassESim()
		pf := fresh.Eval(x)
		pr := creused.Eval(x)
		if pf.PoutW != pr.PoutW || pf.PAE != pr.PAE {
			t.Fatalf("class-e point %d: reused sim drifted: %+v vs %+v", i, pr, pf)
		}
	}
}

// sameClassE reports whether a and b are the same performance, bit for bit.
func sameClassE(a, b ClassEPerformance) bool {
	fa := []float64{a.PoutW, a.PAE, a.PdcW, a.PdriveW, a.VdrainPk}
	fb := []float64{b.PoutW, b.PAE, b.PdcW, b.PdriveW, b.VdrainPk}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Periods == b.Periods && a.Valid == b.Valid
}

// TestClassEStorageRegrowsExactly runs one sim through a long, a short and
// a long transient again (60, 15 and 60 start-up periods, so 68, 23 and 68
// simulated), so the waveforms and current buffers it keeps are grown,
// written short and refilled: every performance is bit-equal to a fresh
// sim's.
func TestClassEStorageRegrowsExactly(t *testing.T) {
	lo, hi := ClassEBounds()
	long := benchMid(lo, hi)
	long[2], long[11] = hi[2], hi[11]
	short := append([]float64(nil), long...)
	short[2], short[11] = lo[2], lo[11]
	reused := NewClassESim()
	for i, x := range [][]float64{long, short, long} {
		pr := reused.Eval(x)
		pf := NewClassESim().Eval(x)
		if want := []int{68, 23, 68}[i]; pr.Periods != want {
			t.Fatalf("evaluation %d simulated %d periods, want %d", i, pr.Periods, want)
		}
		if !sameClassE(pr, pf) {
			t.Fatalf("evaluation %d: reused sim %+v, fresh sim %+v", i, pr, pf)
		}
	}
}
