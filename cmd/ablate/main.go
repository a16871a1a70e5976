// Command ablate runs the design-choice ablations called out in DESIGN.md
// on the op-amp benchmark (reduced budgets):
//
//   - λ, the κ upper bound of the EasyBO acquisition (paper fixes λ = 6);
//   - the hallucination penalization on/off across batch sizes (the paper's
//     own EasyBO vs EasyBO-A comparison, reproduced here at a glance);
//   - the surrogate kernel (SE-ARD, the paper's choice, vs Matérn-5/2);
//   - the hyperparameter refit cadence (cost/quality trade-off this
//     implementation introduces);
//   - the acquisition sweep's size (10·d, 20·d — the default — and 60·d
//     Latin-hypercube candidates before the gradient refinement).
//
// Usage:
//
//	ablate -runs 5 -evals 100 [-which lambda|penalty|kernel|refit|sweep|all] [-json FILE]
//
// With -json the sweeps are also written as one board document, a table per
// sweep in cmd/repro's row schema, so `repro -compare` pairs two builds'
// ablations seed by seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"easybo/internal/bo"
	"easybo/internal/core"
	"easybo/internal/gp"
	"easybo/internal/harness"
	"easybo/internal/objective"
	"easybo/internal/testbench"
)

func main() {
	var (
		runs  = flag.Int("runs", 5, "repetitions per configuration")
		evals = flag.Int("evals", 100, "simulations per run")
		which = flag.String("which", "all", "lambda | penalty | kernel | refit | sweep | all")
		out   = flag.String("json", "", "also write the sweeps to `FILE` as a board document (see repro -compare)")
	)
	flag.Parse()
	a := &ablation{prob: testbench.OpAmp(), runs: *runs, evals: *evals,
		board: harness.Board{Version: harness.BoardVersion}}

	if *which == "all" || *which == "lambda" {
		a.lambda()
	}
	if *which == "all" || *which == "penalty" {
		a.penalty()
	}
	if *which == "all" || *which == "kernel" {
		a.kernel()
	}
	if *which == "all" || *which == "refit" {
		a.refit()
	}
	if *which == "all" || *which == "sweep" {
		a.sweepSize()
	}
	if *out != "" {
		if err := a.board.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "ablate:", err)
			os.Exit(1)
		}
	}
}

// ablation is one invocation: the problem, the budgets, and the board the
// sweeps accumulate into.
type ablation struct {
	prob        *objective.Problem
	runs, evals int
	board       harness.Board
}

// sweep opens a table on the board and prints its header.
func (a *ablation) sweep(name, title string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("%-22s %12s %12s %10s\n", "config", "mean best", "worst", "std")
	t := harness.BoardTable{Name: "ablate-" + name, Title: title, MaxEvals: a.evals, InitPoints: core.DefaultInitPoints}
	for r := 0; r < a.runs; r++ {
		t.Seeds = append(t.Seeds, seed(r))
	}
	a.board.Tables = append(a.board.Tables, t)
}

func seed(run int) int64 { return 1000 + 7919*int64(run) }

// row runs one configuration at every seed, prints its line and adds it to
// the sweep that was opened last.
func (a *ablation) row(label string, cfg bo.Config) {
	cfg.MaxEvals = a.evals
	hs := make([]*bo.History, a.runs)
	for r := range hs {
		cfg.Seed = seed(r)
		h, err := bo.Run(a.prob, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablate:", err)
			os.Exit(1)
		}
		hs[r] = h
	}
	br := harness.NewBoardRow(label, cfg.Algo, cfg.BatchSize, a.evals, hs)
	fmt.Printf("%-22s %12.2f %12.2f %10.2f\n", label, br.Mean, br.Worst, br.Std)
	t := &a.board.Tables[len(a.board.Tables)-1]
	t.Rows = append(t.Rows, br)
}

func (a *ablation) lambda() {
	a.sweep("lambda", "λ ablation (EasyBO-10; paper fixes λ = 6)")
	for _, lambda := range []float64{0.5, 2, 6, 20} {
		a.row(fmt.Sprintf("lambda=%g", lambda), bo.Config{
			Algo: bo.AlgoEasyBO, BatchSize: 10,
			Lambda: lambda, FitIters: 20, RefitEvery: 10,
		})
	}
	fmt.Println("small λ → exploitation-heavy, duplicate-prone batches;")
	fmt.Println("large λ → exploration-heavy; λ≈6 balances both (paper §III-B).")
}

func (a *ablation) penalty() {
	a.sweep("penalty", "penalization ablation across batch size (async EasyBO)")
	for _, b := range []int{5, 15} {
		for _, algo := range []bo.Algorithm{bo.AlgoEasyBOA, bo.AlgoEasyBO} {
			a.row(fmt.Sprintf("%s B=%d", algo.Label(b), b), bo.Config{
				Algo: algo, BatchSize: b,
				FitIters: 20, RefitEvery: 10,
			})
		}
	}
	fmt.Println("the hallucination penalty (§III-C) matters more as B grows.")
}

func (a *ablation) kernel() {
	a.sweep("kernel", "kernel ablation (EasyBO-10)")
	for _, k := range []struct {
		name string
		kern gp.Kernel
	}{{"SE-ARD (paper)", gp.SEARD{}}, {"Matern-5/2", gp.Matern52{}}} {
		a.row(k.name, bo.Config{
			Algo: bo.AlgoEasyBO, BatchSize: 10,
			Kernel: k.kern, FitIters: 20, RefitEvery: 10,
		})
	}
}

func (a *ablation) refit() {
	a.sweep("refit", "hyperparameter refit cadence (EasyBO-10)")
	for _, every := range []int{1, 5, 20} {
		a.row(fmt.Sprintf("refit every %d obs", every), bo.Config{
			Algo: bo.AlgoEasyBO, BatchSize: 10,
			FitIters: 20, RefitEvery: every,
		})
	}
	fmt.Println("frequent refits cost model time but track the landscape better;")
	fmt.Println("the harness defaults to 5 (op-amp) / 15 (class-E).")
}

func (a *ablation) sweepSize() {
	a.sweep("sweep", "acquisition sweep size (EasyBO-10)")
	d := len(a.prob.Lo)
	for _, per := range []int{10, 20, 60} {
		a.row(fmt.Sprintf("%d·d candidates", per), bo.Config{
			Algo: bo.AlgoEasyBO, BatchSize: 10,
			FitIters: 20, RefitEvery: 10, AcqCandidates: per * d,
		})
	}
	fmt.Println("the sweep only seeds the three gradient ascents; 20·d (at least 100)")
	fmt.Println("is the default, 60·d the size proposer generations 0 and 1 swept.")
}
