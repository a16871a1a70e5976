// Command repro regenerates the experimental artifacts of the EasyBO paper
// (DAC 2020): Tables I and II, and Figures 1, 2, 4 and 6.
//
// Usage:
//
//	repro -table 1 -runs 20            # full Table I (op-amp)
//	repro -table 2 -runs 5 -quick      # reduced Table II (class-E)
//	repro -figure 4 -runs 10           # op-amp curves at B=15
//	repro -figure 1                    # async/sync schedule illustration
//	repro -all -runs 5                 # everything, with CSVs under -out
//
// Absolute FOM values differ from the paper (the simulator substrate is not
// HSPICE+PDK); the comparisons of interest — which algorithm wins, how
// results degrade with batch size, and the async time savings — are
// reproduced. See the README section "Reproducing the paper's tables" and
// DESIGN.md §1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"easybo/internal/harness"
	"easybo/internal/objective"
	"easybo/internal/profiling"
	"easybo/internal/testbench"
)

// stopProfiles flushes any active profiles; fatal routes every error exit
// through it so -cpuprofile output is never left truncated.
var stopProfiles = func() {}

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate Table 1 (op-amp) or 2 (class-E)")
		figure     = flag.Int("figure", 0, "regenerate Figure 1, 2, 4 or 6")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		runs       = flag.Int("runs", 5, "repetitions per configuration (paper: 20)")
		quick      = flag.Bool("quick", false, "reduced budgets for a fast smoke run")
		out        = flag.String("out", "results", "directory for CSV outputs")
		deEvals    = flag.Int("de", 0, "override DE budget (default: paper's 20000/15000)")
		verbose    = flag.Bool("v", false, "progress output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	if *all || *figure == 1 {
		fmt.Println("=== Figure 1: synchronous vs asynchronous dispatch ===")
		fmt.Println(harness.ScheduleDemo())
	}
	if *all || *figure == 2 {
		fmt.Println("=== Figure 2: EasyBO weight sampling density ===")
		fmt.Println(harness.WeightDensityDemo(0))
	}
	if *all || *table == 1 {
		runTable(1, *runs, *quick, *deEvals, *out, *verbose)
	}
	if *all || *table == 2 {
		runTable(2, *runs, *quick, *deEvals, *out, *verbose)
	}
	if *all || *figure == 4 {
		runFigure(4, *runs, *quick, *out, *verbose)
	}
	if *all || *figure == 6 {
		runFigure(6, *runs, *quick, *out, *verbose)
	}
}

func specFor(table int, runs int, quick bool, deEvals int, verbose bool) harness.Spec {
	var spec harness.Spec
	switch table {
	case 1:
		spec = harness.Spec{
			Name:     "Table I — operational amplifier (FOM = 1.2·GAIN + 10·UGF + 1.6·PM)",
			Problem:  testbench.OpAmp(),
			MaxEvals: 150,
		}
		if deEvals == 0 {
			deEvals = 20000
		}
	case 2:
		spec = harness.Spec{
			Name:     "Table II — class-E power amplifier (FOM = 3·PAE + Pout)",
			Problem:  testbench.ClassE(),
			MaxEvals: 450,
		}
		if deEvals == 0 {
			deEvals = 15000
		}
	}
	spec.InitPoints = 20
	spec.Runs = runs
	spec.BaseSeed = 20200720 // DAC 2020 conference date
	spec.FitIters = 30
	spec.RefitEvery = 5
	if table == 2 {
		spec.RefitEvery = 15 // 450-point fits are costly; match runtime budget
	}
	if quick {
		spec.MaxEvals = spec.MaxEvals / 3
		deEvals /= 10
		spec.FitIters = 15
	}
	spec.Entries = harness.PaperEntries(deEvals)
	if verbose {
		done := 0
		total := len(spec.Entries) * spec.Runs
		spec.Progress = func(label string, run int, best float64) {
			done++
			fmt.Fprintf(os.Stderr, "[%4d/%4d] %-14s run %2d best %.3f\n", done, total, label, run, best)
		}
	}
	return spec
}

func runTable(table, runs int, quick bool, deEvals int, out string, verbose bool) {
	spec := specFor(table, runs, quick, deEvals, verbose)
	start := time.Now()
	tbl, err := harness.RunTable(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== Table %s ===\n", roman(table))
	fmt.Println(tbl.Format())
	fmt.Println("Headline speed-ups (time ratios at equal simulation budgets):")
	for _, s := range tbl.Speedups() {
		fmt.Printf("  %-12s vs %-14s %8.2f×\n", s.Label, s.Reference, s.Factor)
	}
	fmt.Println("Rank-sum p-values (best-FOM distributions, EasyBO vs baselines):")
	for _, b := range []int{5, 10, 15} {
		easy := fmt.Sprintf("EasyBO-%d", b)
		for _, ref := range []string{"pBO", "pHCBO", "EasyBO-S"} {
			refLabel := fmt.Sprintf("%s-%d", ref, b)
			if p := tbl.Significance(easy, refLabel); p < 1 {
				fmt.Printf("  %-10s vs %-12s p = %.3f\n", easy, refLabel, p)
			}
		}
	}
	path := filepath.Join(out, fmt.Sprintf("table%d.csv", table))
	if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("(CSV written to %s; %d runs/config; took %s real time)\n\n",
		path, runs, time.Since(start).Round(time.Second))
}

func runFigure(figure, runs int, quick bool, out string, verbose bool) {
	var spec harness.Spec
	var prob *objective.Problem
	if figure == 4 {
		prob = testbench.OpAmp()
		spec = specFor(1, runs, quick, 100, verbose)
		spec.Name = "Figure 4 — op-amp, best FOM vs wall-clock (B=15)"
	} else {
		prob = testbench.ClassE()
		spec = specFor(2, runs, quick, 100, verbose)
		spec.Name = "Figure 6 — class-E, best FOM vs wall-clock (B=15)"
	}
	spec.Problem = prob
	start := time.Now()
	fig, err := harness.RunFigure(spec, 15, 120)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("=== Figure %d ===\n", figure)
	fmt.Println(fig.ASCIIPlot(78, 22))
	fmt.Println("Time to reach each baseline's final mean FOM — reduction by EasyBO:")
	for label, red := range fig.TimeReduction() {
		fmt.Printf("  vs %-10s %6.1f%%\n", label, 100*red)
	}
	path := filepath.Join(out, fmt.Sprintf("figure%d.csv", figure))
	if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("(CSV written to %s; took %s real time)\n\n", path, time.Since(start).Round(time.Second))
}

func roman(n int) string {
	if n == 1 {
		return "I"
	}
	return "II"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	stopProfiles()
	os.Exit(1)
}
