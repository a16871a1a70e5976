package optimize

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The files under testdata/ are the full (x, value) evaluation sequences of
// the pre-stepper NelderMead — the closed loop this package had before the
// simplex became an ask/tell state machine — one line per evaluation, every
// float as its IEEE-754 bit pattern. They were written by running this test
// with -update at that commit. The stepper must reproduce them exactly:
// acquisition maximization sits inside the replay-determinism contract, so
// one differing bit in one trial point quarantines every recorded session.
var update = flag.Bool("update", false, "rewrite testdata/nm_*.txt from the current NelderMead")

type pinCase struct {
	name       string
	f          Objective
	x0, lo, hi []float64
	opts       NelderMeadOptions
}

func box(d int, lo, hi float64) (l, h []float64) {
	l, h = make([]float64, d), make([]float64, d)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func pinCases() []pinCase {
	lo3, hi3 := box(3, -5, 5)
	lo2, hi2 := box(2, -2, 2)
	lo4, hi4 := box(4, 0, 1)
	lo13, hi13 := box(13, -1, 1)
	rosenbrock := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return -(a*a + 100*b*b)
	}
	// A crease along x0 = x1 with ripples across it: reflections and
	// contractions both fail there, which is what forces shrinks.
	crease := func(x []float64) float64 {
		return -math.Abs(x[0]-x[1]) - 0.1*(x[0]+x[1]-1)*(x[0]+x[1]-1) + 0.05*math.Sin(40*x[0])
	}
	// Quantized bowl in 13 dimensions: most vertices tie, and 14 vertices is
	// past the size where the sort is a plain insertion sort, so the ranking
	// of equal values is pinned too.
	steps := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.9 + 0.1*float64(i%3)
			s += d * d
		}
		return -math.Floor(4*s) / 4
	}
	x13 := make([]float64, 13)
	for i := range x13 {
		x13[i] = 0.95 - 0.45*float64(i%4)
	}
	return []pinCase{
		// Interior optimum, generous budget: expansion, contraction, Tol stop.
		{"bowl_tol", negSphere([]float64{1.2, -0.7, 3.3}), []float64{0, 0, 0}, lo3, hi3,
			NelderMeadOptions{MaxEvals: 2000}},
		// Curved valley: every branch, budget stop.
		{"rosenbrock", rosenbrock, []float64{-1.2, 1}, lo2, hi2,
			NelderMeadOptions{MaxEvals: 160, InitStep: 0.05}},
		// Optimum beyond the upper corner, start against the upper faces: the
		// initial step flips inward and trial points are clamped to the box.
		{"corner_clamp", negSphere([]float64{2, 2, 0.5, -1}), []float64{0.97, 0.5, 0.5, 0.02}, lo4, hi4,
			NelderMeadOptions{MaxEvals: 200}},
		// Shrinks, with a loose Tol so the spread test ends the run.
		{"crease_shrink", crease, []float64{-1.5, 1.1}, lo2, hi2,
			NelderMeadOptions{MaxEvals: 300, Tol: 1e-4}},
		// The same search cut off by the budget between two shrink evaluations.
		{"crease_midshrink", crease, []float64{-1.5, 1.1}, lo2, hi2,
			NelderMeadOptions{MaxEvals: midShrinkBudget}},
		{"steps_ties_13d", steps, x13, lo13, hi13, NelderMeadOptions{MaxEvals: 150}},
	}
}

// midShrinkBudget runs out while the crease search is between the two
// evaluations of a shrink (the budget is only checked once per iteration, so
// the search overshoots it into the shrink and stops after the first vertex);
// TestPinnedCasesReachEveryBranch checks it does.
const midShrinkBudget = 30

func bits(x []float64, v float64) string {
	var b strings.Builder
	for _, c := range x {
		fmt.Fprintf(&b, "%016x ", math.Float64bits(c))
	}
	fmt.Fprintf(&b, "%016x\n", math.Float64bits(v))
	return b.String()
}

// nmTrace runs the case through NelderMead and renders every evaluation and
// the returned optimum.
func nmTrace(c pinCase) string {
	var b strings.Builder
	x, v := NelderMead(func(x []float64) float64 {
		v := c.f(x)
		b.WriteString(bits(x, v))
		return v
	}, c.x0, c.lo, c.hi, c.opts)
	b.WriteString("best " + bits(x, v))
	return b.String()
}

func TestNelderMeadReproducesPinnedSequences(t *testing.T) {
	for _, c := range pinCases() {
		path := filepath.Join("testdata", "nm_"+c.name+".txt")
		got := nmTrace(c)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := string(raw)
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("%s: evaluation %d diverged\n got  %s\n want %s", c.name, i, gl[i], wl[i])
				break
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%s: %d lines, want %d", c.name, len(gl), len(wl))
		}
	}
}

// TestPinnedCasesReachEveryBranch keeps the fixtures honest: between them
// the pinned searches must take every transition of the state machine.
func TestPinnedCasesReachEveryBranch(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range pinCases() {
		s := NewSimplex(c.x0, c.lo, c.hi, c.opts)
		d := len(c.x0)
		for x := s.Next(); x != nil; x = s.Next() {
			before, i := s.phase, s.i
			if before != nmInit && before != nmShrink {
				for j := range x {
					if x[j] == c.lo[j] || x[j] == c.hi[j] {
						seen["clamped trial"] = true
					}
				}
			}
			s.Tell(c.f(x))
			switch {
			case before == nmReflect && s.phase == nmExpand:
				seen["reflect → expand"] = true
			case before == nmReflect && s.phase == nmContract:
				seen["reflect → contract"] = true
			case before == nmReflect:
				seen["reflection accepted"] = true
			case before == nmExpand:
				seen["expansion scored"] = true
			case before == nmContract && s.phase == nmShrink:
				seen["contract → shrink"] = true
			case before == nmContract:
				seen["contraction accepted"] = true
			case before == nmShrink && s.phase != nmShrink && i < d:
				seen["budget ends a shrink early"] = true
				if s.phase != nmDone {
					t.Errorf("%s: search continued past its budget", c.name)
				}
			case before == nmShrink && s.phase != nmShrink:
				seen["shrink completed"] = true
			}
		}
		if s.evals < s.maxEvals {
			seen["Tol stop"] = true
		} else {
			seen["budget stop"] = true
		}
	}
	for _, want := range []string{
		"clamped trial", "reflect → expand", "reflect → contract", "reflection accepted",
		"expansion scored", "contract → shrink", "contraction accepted",
		"budget ends a shrink early", "shrink completed", "Tol stop", "budget stop",
	} {
		if !seen[want] {
			t.Errorf("no pinned case reaches: %s", want)
		}
	}
}

// TestLockstepMatchesSolo runs searches from several starts together on one
// batched objective — to completion in one call, and a few rounds per call
// as the refinement workers do — and requires each to evaluate exactly the
// sequence it evaluates alone.
func TestLockstepMatchesSolo(t *testing.T) {
	for _, c := range pinCases() {
		starts := [][]float64{c.x0, c.lo, c.hi}
		mid := make([]float64, len(c.x0))
		for j := range mid {
			mid[j] = 0.5*c.lo[j] + 0.5*c.hi[j]
		}
		starts = append(starts, mid, c.x0)

		solo := make([]string, len(starts))
		for k, x0 := range starts {
			kc := c
			kc.x0 = x0
			solo[k] = nmTrace(kc)
		}

		for _, rounds := range []int{math.MaxInt, 1, 7} {
			together := make([]*Simplex, len(starts))
			for k, x0 := range starts {
				together[k] = NewSimplex(x0, c.lo, c.hi, c.opts)
			}
			logs := make([]strings.Builder, len(starts))
			batches := 0 // five points fit one batch, so one per round
			f := func(xs [][]float64, out []float64) {
				batches++
				for i, x := range xs {
					k := 0 // the search whose pending point x is
					for together[k].Next() == nil || &together[k].Next()[0] != &x[0] {
						k++
					}
					out[i] = c.f(x)
					logs[k].WriteString(bits(x, out[i]))
				}
			}
			running := append([]*Simplex(nil), together...)
			xs, vals := make([][]float64, len(running)), make([]float64, len(running))
			for n := len(running); n > 0; {
				before := batches
				n = lockstep(0, func(_ int, _ []*Simplex, xs [][]float64, out []float64) { f(xs, out) }, running[:n], xs, vals, rounds)
				if n > 0 && batches-before != rounds {
					t.Fatalf("%s: a call budgeted %d rounds came back after %d with simplexes running", c.name, rounds, batches-before)
				}
			}
			for k, s := range together {
				x, v := s.Best()
				if got := logs[k].String() + "best " + bits(x, v); got != solo[k] {
					t.Errorf("%s: start %d evaluated a different sequence in lockstep (%d rounds a call) than alone", c.name, k, rounds)
				}
			}
		}
	}
}
