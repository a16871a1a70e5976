package circuit

import (
	"math"
	"testing"
)

// sameFloats reports whether a and b hold the same bits, element by element.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameTran fails t unless got holds the bits of want: time axis, every
// recorded waveform and the Newton iteration count.
func sameTran(t *testing.T, what string, got, want *TranResult) {
	t.Helper()
	if !sameFloats(got.T, want.T) {
		t.Fatalf("%s: time axis differs", what)
	}
	if len(got.V) != len(want.V) || len(got.index) != len(want.index) || got.Stats.Iterations != want.Stats.Iterations {
		t.Fatalf("%s: %d waveforms, %d names, %d iterations; want %d, %d, %d",
			what, len(got.V), len(got.index), got.Stats.Iterations, len(want.V), len(want.index), want.Stats.Iterations)
	}
	for name := range want.index {
		if !sameFloats(got.Node(name), want.Node(name)) {
			t.Fatalf("%s: waveform %q differs", what, name)
		}
	}
}

// The tests below run two copies of one netlist in lockstep, one into a
// reused result and one into fresh results, so their workspaces (whose
// factor cache and frozen pivots carry over between analyses) see the same
// history and only the result storage differs.

// TestTranIntoReusesAndForgets runs one result through a shrinking and a
// growing run with different Record lists: every run matches a fresh
// result bit for bit, the shrinking run writes into the storage already
// there, and a node the last run did not record reads nil.
func TestTranIntoReusesAndForgets(t *testing.T) {
	build := goldenCircuits["rlc"]
	c, twin := build(), build()
	var res TranResult
	run := func(what string, opts TranOptions) {
		t.Helper()
		if err := c.TranInto(&res, opts); err != nil {
			t.Fatal(err)
		}
		want, err := twin.Tran(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameTran(t, what, &res, want)
		if res.Stats != want.Stats {
			t.Fatalf("%s: %+v, want %+v", what, res.Stats, want.Stats)
		}
	}
	run("first run", TranOptions{TStop: 4e-6, TStep: 5e-9, Record: []string{"a", "b"}})
	t0, v0 := &res.T[0], &res.V[0][0]
	run("shorter run", TranOptions{TStop: 1e-6, TStep: 5e-9, Record: []string{"b"}})
	if &res.T[0] != t0 || &res.V[0][0] != v0 {
		t.Fatal("a shorter run reallocated storage that was large enough")
	}
	if res.Node("a") != nil {
		t.Fatal("Node of a node the last run did not record is not nil")
	}
	run("longer run recording every node", TranOptions{TStop: 6e-6, TStep: 5e-9})
}

// TestTranIntoAfterError interleaves failed runs with good ones on one
// result: a rejected option, an unknown record node (which fails after the
// result's index was cleared) and a Newton failure at the first step. The
// twin runs only the good runs, and every good run matches it bit for bit.
// Only the factorization count may differ: the Newton failure leaves a
// poisoned factorization that the next run must redo.
func TestTranIntoAfterError(t *testing.T) {
	build := func() (*Circuit, *Resistor) {
		c := goldenCircuits["rlc"]()
		return c, c.AddR("R3", "a", "0", 5e3)
	}
	c, r := build()
	twin, _ := build()
	opts := TranOptions{TStop: 2e-6, TStep: 5e-9}
	var res TranResult
	good := func(what string) {
		t.Helper()
		if err := c.TranInto(&res, opts); err != nil {
			t.Fatal(err)
		}
		want, err := twin.Tran(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameTran(t, what, &res, want)
	}
	good("first run")
	bad := []struct {
		name string
		opts TranOptions
		nanR bool // run with R3 = NaN
	}{
		{"NaN TStop", TranOptions{TStop: math.NaN(), TStep: 5e-9}, false},
		{"unknown record node", TranOptions{TStop: 2e-6, TStep: 5e-9, Record: []string{"b", "nosuch"}}, false},
		{"Newton failure", TranOptions{TStop: 2e-6, TStep: 5e-9, UIC: true}, true},
	}
	for _, tc := range bad {
		if tc.nanR {
			r.R = math.NaN()
		}
		err := c.TranInto(&res, tc.opts)
		if err == nil {
			t.Fatalf("%s: TranInto succeeded", tc.name)
		}
		t.Logf("%s: %v", tc.name, err)
		r.R = 5e3
		good("good run after " + tc.name)
	}
}

// sameAC fails t unless got holds the bits of want: the grid and every
// unknown at every frequency.
func sameAC(t *testing.T, what string, got, want *ACResult) {
	t.Helper()
	if !sameFloats(got.Freqs, want.Freqs) || len(got.X) != len(want.X) {
		t.Fatalf("%s: grid differs from a fresh sweep", what)
	}
	for k := range want.X {
		for i, w := range want.X[k] {
			g := got.X[k][i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: unknown %d at %g Hz is %v, fresh sweep %v", what, i, want.Freqs[k], g, w)
			}
		}
	}
}

// TestACSweepIntoReuse sweeps one result through a long, a shorter and a
// long grid again, on one and on two workers, and extracts a Bode response
// into one reused Bode each time: every sweep and every response matches
// the twin's fresh ones bit for bit. Under -race it also checks the parallel sweep's
// writes into the reused backing array.
func TestACSweepIntoReuse(t *testing.T) {
	build := func() *Circuit { // the rlc ladder, driven
		c := goldenCircuits["rlc"]()
		c.devices[0].(*VSource).ACMag = 1
		return c
	}
	c, twin := build(), build()
	var res ACResult
	var bode Bode
	grids := []struct {
		freqs   []float64
		workers int
	}{
		{LogSpace(10, 1e9, 64), 1},
		{LogSpace(1e3, 1e8, 17), 2},
		{LogSpace(10, 1e9, 64), 2},
		{LogSpace(1e3, 1e8, 17), 1},
	}
	for _, g := range grids {
		if err := c.ACSweepInto(&res, nil, g.freqs, ACOptions{Workers: g.workers}); err != nil {
			t.Fatal(err)
		}
		want, err := twin.ACSweep(nil, g.freqs, ACOptions{Workers: g.workers})
		if err != nil {
			t.Fatal(err)
		}
		what := "sweep"
		if g.workers > 1 {
			what = "parallel sweep"
		}
		sameAC(t, what, &res, want)
		if res.V(0, "b") == 0 {
			t.Fatal("the sweep reads 0 V: the ladder is not driven")
		}
		for _, node := range []string{"b", "nosuch"} {
			BodeInto(&bode, &res, node)
			fresh := BodeOf(want, node)
			if !sameFloats(bode.Freq, fresh.Freq) || !sameFloats(bode.MagDB, fresh.MagDB) || !sameFloats(bode.PhaseDeg, fresh.PhaseDeg) {
				t.Fatalf("%s: Bode of %q differs from a fresh one", what, node)
			}
		}
	}
}
