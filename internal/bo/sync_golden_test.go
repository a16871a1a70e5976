package bo

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/sched"
)

// testdata/sync_golden.txt holds the full histories of the sequential,
// synchronous-batch and random-search algorithms — every float as a hex
// literal, failed evaluations included. It was first written by the
// hand-written runSync/runRandom loops, before those became core.AskTell.Run
// with a barrier, and rewritten with -update by the commits that moved the
// proposer to a new generation (see TestAsyncHistoriesMatchGolden; the Random
// rows, which refine no posterior, never moved). A removed algorithm has its
// blocks deleted by hand, not by -update: the lines left staying byte for
// byte is the proof that no other algorithm moved. -update rewrites both
// golden files from the current code, so only do that deliberately.
var update = flag.Bool("update", false, "rewrite testdata/{async,sync}_golden.txt from the current drivers")

// pinProblem fails (NaN) on roughly a fifth of the box, chosen from the bits
// of x so the design and the model phase both meet failures. With flaky set
// a point fails only on its first visit: a resubmitted point then succeeds,
// where a pure objective would fail it forever.
func pinProblem(failing, flaky bool) *objective.Problem {
	seen := map[[2]uint64]bool{}
	return &objective.Problem{
		Name: "pin",
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
		Eval: func(x []float64) float64 {
			k := [2]uint64{math.Float64bits(x[0]), math.Float64bits(x[1])}
			if failing && (k[0]>>3^k[1]>>5)%5 == 0 && !(flaky && seen[k]) {
				seen[k] = true
				return math.NaN()
			}
			return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2)
		},
		Cost: func(x []float64) float64 { return 1 + 3*x[0] },
	}
}

func TestSyncHistoriesMatchGolden(t *testing.T) {
	algos := []Algorithm{
		AlgoEI, AlgoLCB, AlgoEasyBOSeq,
		AlgoPBO, AlgoPHCBO, AlgoEasyBOS, AlgoEasyBOSP, AlgoRandom,
	}
	modes := []struct {
		name    string
		failing bool
		policy  core.FailurePolicy
	}{
		{"clean", false, core.FailAbort},
		{"skip", true, core.FailSkip},
		{"resubmit", true, core.FailResubmit},
	}
	var b strings.Builder
	line := func(tag string, r sched.Result) {
		fmt.Fprintf(&b, "  %s id=%d w=%d x=[%x %x] y=%x s=%x e=%x\n",
			tag, r.ID, r.Worker, r.X[0], r.X[1], r.Y, r.Start, r.End)
	}
	for _, algo := range algos {
		for _, mode := range modes {
			// 10 design + 21 model evaluations at B = 4: the design ends on a
			// batch of 2 and the model phase on a batch of 1.
			h, err := Run(pinProblem(mode.failing, mode.policy == core.FailResubmit), Config{
				Algo: algo, BatchSize: 4, InitPoints: 10, MaxEvals: 31, Seed: 7,
				FitIters: 15, RefitEvery: 5, Failure: mode.policy,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, mode.name, err)
			}
			if mode.failing && len(h.Failed) == 0 {
				t.Fatalf("%s/%s: no failure met, the pin would not cover the policy", algo, mode.name)
			}
			fmt.Fprintf(&b, "%s/%s B=%d makespan=%x bestY=%x\n", algo, mode.name, h.BatchSize, h.Makespan, h.BestY)
			for _, r := range h.Records {
				line("ok", r)
			}
			for _, r := range h.Failed {
				line("failed", r)
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile("testdata/sync_golden.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/sync_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
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
