package bo

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"easybo/internal/objective"
)

// TestAsyncHistoriesMatchGolden pins the virtual-time EasyBO/EasyBO-A
// trajectories to testdata/async_golden.txt. Every float is compared through
// its exact hex representation, so any behavioral drift in the executor, the
// async loop, the surrogate cadence, the acquisition maximizer or rng
// consumption — even 1 ulp — fails this test.
//
// The file was first written by the executor before the slot-pool rebuild
// (PR 2) and stood unchanged through PR 22. It was rewritten once, with
// -update, by the commit that moved the proposer to generation 1 (the
// gradient refinement, core.ProposerGeneration): the histories are a
// different optimizer's from there on, and what licensed the rewrite is the
// scoreboard (cmd/repro, DESIGN.md §15), not this test. A change that does
// not mean to alter what an ask proposes must leave it alone.
func TestAsyncHistoriesMatchGolden(t *testing.T) {
	prob := &objective.Problem{
		Name: "golden",
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
		Eval: func(x []float64) float64 {
			return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2)
		},
		Cost: func(x []float64) float64 { return 1 + 3*x[0] },
	}
	var b strings.Builder
	for _, algo := range []Algorithm{AlgoEasyBO, AlgoEasyBOA} {
		h, err := Run(prob, Config{
			Algo: algo, BatchSize: 4, InitPoints: 8, MaxEvals: 30, Seed: 99,
			FitIters: 15, RefitEvery: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s makespan=%x bestY=%x\n", algo, h.Makespan, h.BestY)
		for _, r := range h.Records {
			fmt.Fprintf(&b, "  id=%d w=%d x=[%x %x] y=%x s=%x e=%x\n",
				r.ID, r.Worker, r.X[0], r.X[1], r.Y, r.Start, r.End)
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile("testdata/async_golden.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/async_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		// Point at the first differing line for a usable failure message.
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("history diverged from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("history length changed: got %d lines, want %d", len(gl), len(wl))
	}
}
