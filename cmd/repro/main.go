// Command repro regenerates the experimental artifacts of the EasyBO paper
// (DAC 2020): Tables I and II, and Figures 1, 2, 4 and 6 — and keeps score
// of them.
//
// Usage:
//
//	repro -table 1 -runs 20            # full Table I (op-amp)
//	repro -table 2 -runs 5 -quick      # reduced Table II (class-E)
//	repro -figure 4 -runs 10           # op-amp curves at B=15
//	repro -figure 1                    # async/sync schedule illustration
//	repro -all -runs 5                 # everything, with CSVs under -out
//
//	repro -all -quick -json board.json # the same, as one deterministic document
//	repro -check board.json            # assert the paper's claims on a board
//	repro -compare old.json new.json   # pair two boards seed by seed, sign test per row
//
// Absolute FOM values differ from the paper (the simulator substrate is not
// HSPICE+PDK); the comparisons of interest — which algorithm wins, how
// results degrade with batch size, and the async time savings — are
// reproduced, and -check asserts them. See the README section "Reproducing
// the paper's tables" and DESIGN.md §1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"easybo/internal/harness"
	"easybo/internal/profiling"
	"easybo/internal/testbench"
)

// stopProfiles flushes any active profiles; fatal routes every error exit
// through it so -cpuprofile output is never left truncated.
var stopProfiles = func() {}

// figureBatch is the batch size of Figures 4 and 6.
const figureBatch = 15

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
		jsonPath   = flag.String("json", "", "write every table and figure of this run to `FILE` as one board document")
		checkPath  = flag.String("check", "", "assert the paper's qualitative claims on the board in `FILE` (after writing it, when it is also -json's); exit 1 if one fails")
		compare    = flag.String("compare", "", "compare the board in `FILE` with the board named by the next argument, seed by seed; exit 1 if a row is worse at sign-test p < 0.05")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	runsAnything := *all || *table != 0 || *figure != 0
	if !runsAnything && *checkPath == "" && *compare == "" {
		flag.Usage()
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()

	if runsAnything {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		var tables, figures []int
		for _, n := range []int{1, 2} {
			if *all || *table == n {
				tables = append(tables, n)
			}
		}
		for _, n := range []int{1, 2, 4, 6} {
			if *all || *figure == n {
				figures = append(figures, n)
			}
		}
		board, err := run(os.Stdout, options{
			tables: tables, figures: figures,
			runs: *runs, quick: *quick, deEvals: *deEvals, out: *out, verbose: *verbose,
		})
		if err != nil {
			fatal(err)
		}
		if *jsonPath != "" {
			if err := board.WriteFile(*jsonPath); err != nil {
				fatal(err)
			}
			fmt.Printf("(board written to %s)\n", *jsonPath)
		}
	}
	failed := false
	if *checkPath != "" {
		board, err := harness.ReadBoard(*checkPath)
		if err != nil {
			fatal(err)
		}
		failed = !check(os.Stdout, board)
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-compare takes two boards: repro -compare A.json B.json"))
		}
		a, err := harness.ReadBoard(*compare)
		if err != nil {
			fatal(err)
		}
		b, err := harness.ReadBoard(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("A = %s, B = %s; won/lost count the seeds on which B's best FOM is higher/lower\n", *compare, flag.Arg(0))
		if worse := harness.Compare(os.Stdout, a, b); worse > 0 {
			fmt.Printf("%d row(s) worse at sign-test p < 0.05\n", worse)
			failed = true
		}
	}
	if failed {
		stopProfiles()
		os.Exit(1)
	}
}

// options is one repro run: which artifacts, at what budgets.
type options struct {
	tables, figures []int
	runs            int
	quick           bool
	deEvals         int
	out             string // CSV directory; "" writes none
	verbose         bool
}

// run regenerates the requested artifacts, printing each to w, and returns
// them as a board.
func run(w io.Writer, o options) (*harness.Board, error) {
	board := &harness.Board{Version: harness.BoardVersion, Quick: o.quick}
	for _, f := range o.figures {
		switch f {
		case 1:
			fmt.Fprintln(w, "=== Figure 1: synchronous vs asynchronous dispatch ===")
			fmt.Fprintln(w, harness.ScheduleDemo())
		case 2:
			fmt.Fprintln(w, "=== Figure 2: EasyBO weight sampling density ===")
			fmt.Fprintln(w, harness.WeightDensityDemo(0))
		}
	}
	for _, t := range o.tables {
		bt, err := runTable(w, t, o)
		if err != nil {
			return nil, err
		}
		board.Tables = append(board.Tables, bt)
	}
	for _, f := range o.figures {
		if f != 4 && f != 6 {
			continue
		}
		bf, err := runFigure(w, f, o)
		if err != nil {
			return nil, err
		}
		board.Figures = append(board.Figures, bf)
	}
	return board, nil
}

func specFor(table int, o options) harness.Spec {
	var spec harness.Spec
	deEvals := o.deEvals
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
	spec.Runs = o.runs
	spec.BaseSeed = 20200720 // DAC 2020 conference date
	spec.FitIters = 30
	spec.RefitEvery = 5
	if table == 2 {
		spec.RefitEvery = 15 // 450-point fits are costly; match runtime budget
	}
	if o.quick {
		spec.MaxEvals = spec.MaxEvals / 3
		deEvals /= 10
		spec.FitIters = 15
	}
	spec.Entries = harness.PaperEntries(deEvals)
	if o.verbose {
		done := 0
		total := len(spec.Entries) * spec.Runs
		spec.Progress = func(label string, run int, best float64) {
			done++
			fmt.Fprintf(os.Stderr, "[%4d/%4d] %-14s run %2d best %.3f\n", done, total, label, run, best)
		}
	}
	return spec
}

// significancePairs are the rank-sum tests a table prints: EasyBO against
// the synchronous baselines at each batch size.
func significancePairs() [][2]string {
	var pairs [][2]string
	for _, b := range []int{5, 10, 15} {
		for _, ref := range []string{"pBO", "pHCBO", "EasyBO-S"} {
			pairs = append(pairs, [2]string{fmt.Sprintf("EasyBO-%d", b), fmt.Sprintf("%s-%d", ref, b)})
		}
	}
	return pairs
}

func runTable(w io.Writer, table int, o options) (harness.BoardTable, error) {
	spec := specFor(table, o)
	start := time.Now()
	tbl, err := harness.RunTable(spec)
	if err != nil {
		return harness.BoardTable{}, err
	}
	bt := tbl.Board(fmt.Sprintf("table%d", table), significancePairs())
	fmt.Fprintf(w, "=== Table %s ===\n", roman(table))
	fmt.Fprintln(w, tbl.Format())
	fmt.Fprintln(w, "Headline speed-ups (time ratios at equal simulation budgets):")
	for _, s := range bt.Speedups {
		fmt.Fprintf(w, "  %-12s vs %-14s %8.2f×\n", s.Label, s.Reference, s.Factor)
	}
	fmt.Fprintln(w, "Rank-sum p-values (best-FOM distributions, EasyBO vs baselines):")
	for _, s := range bt.Significance {
		if s.P == nil {
			fmt.Fprintf(w, "  %-10s vs %-12s row absent\n", s.A, s.B)
			continue
		}
		fmt.Fprintf(w, "  %-10s vs %-12s p = %.3f\n", s.A, s.B, *s.P)
	}
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("table%d.csv", table))
		if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
			return harness.BoardTable{}, err
		}
		fmt.Fprintf(w, "(CSV written to %s; %d runs/config; took %s real time)\n", path, o.runs, time.Since(start).Round(time.Second))
	}
	fmt.Fprintln(w)
	return bt, nil
}

func runFigure(w io.Writer, figure int, o options) (harness.BoardFigure, error) {
	o.deEvals = 100 // RunFigure replaces the entries; DE is not among them
	var spec harness.Spec
	if figure == 4 {
		spec = specFor(1, o)
		spec.Name = "Figure 4 — op-amp, best FOM vs wall-clock (B=15)"
	} else {
		spec = specFor(2, o)
		spec.Name = "Figure 6 — class-E, best FOM vs wall-clock (B=15)"
	}
	start := time.Now()
	fig, err := harness.RunFigure(spec, figureBatch, 120)
	if err != nil {
		return harness.BoardFigure{}, err
	}
	bf := fig.Board(fmt.Sprintf("figure%d", figure), figureBatch)
	fmt.Fprintf(w, "=== Figure %d ===\n", figure)
	fmt.Fprintln(w, fig.ASCIIPlot(78, 22))
	fmt.Fprintln(w, "Time to reach each baseline's final mean FOM — reduction by EasyBO:")
	for _, r := range bf.TimeReduction {
		fmt.Fprintf(w, "  vs %-10s %6.1f%%\n", r.Label, 100*r.Reduction)
	}
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("figure%d.csv", figure))
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			return harness.BoardFigure{}, err
		}
		fmt.Fprintf(w, "(CSV written to %s; took %s real time)\n", path, time.Since(start).Round(time.Second))
	}
	fmt.Fprintln(w)
	return bf, nil
}

// check prints every assertion of the board and reports whether all passed.
func check(w io.Writer, b *harness.Board) bool {
	as := b.Check()
	failed := 0
	for _, a := range as {
		verdict := "ok  "
		if !a.Passed {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-8s %s\n", verdict, a.Where, a.Claim)
	}
	fmt.Fprintf(w, "%d of the paper's claims asserted, %d failed\n", len(as), failed)
	return failed == 0 && len(as) > 0
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
