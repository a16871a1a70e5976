package harness

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"easybo/internal/bo"
	"easybo/internal/objective"
)

// tinySpec keeps harness tests fast: a cheap synthetic problem with
// heterogeneous costs and small budgets.
func tinySpec(name string, entries []Entry, runs int) Spec {
	p := objective.WithCost(objective.Branin(), func(x []float64) float64 {
		return 5 + 4*math.Abs(math.Sin(x[0]))
	})
	return Spec{
		Name: name, Problem: p, Entries: entries,
		Runs: runs, MaxEvals: 25, InitPoints: 10, BaseSeed: 3,
		FitIters: 10, RefitEvery: 10, Parallel: 4,
	}
}

func TestRunTableShapeAndDeterminism(t *testing.T) {
	entries := []Entry{
		{Algo: bo.AlgoRandom, Batch: 2},
		{Algo: bo.AlgoEasyBO, Batch: 3},
		{Algo: bo.AlgoPBO, Batch: 3},
	}
	run := func() *Table {
		tbl, err := RunTable(tinySpec("t", entries, 3))
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	t1 := run()
	t2 := run()
	if len(t1.Rows) != 3 {
		t.Fatalf("rows = %d", len(t1.Rows))
	}
	for i, r := range t1.Rows {
		if r.Runs != 3 || math.IsNaN(r.Mean) || r.MeanTime <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.Best < r.Worst {
			t.Fatalf("best < worst in %+v", r)
		}
		// Parallel execution must not break determinism.
		if r.Mean != t2.Rows[i].Mean || r.MeanTime != t2.Rows[i].MeanTime {
			t.Fatal("table not deterministic across parallel runs")
		}
	}
	if t1.Row("EasyBO-3") == nil || t1.Row("nope") != nil {
		t.Fatal("Row lookup wrong")
	}
	if len(t1.Histories["EasyBO-3"]) != 3 {
		t.Fatal("histories missing")
	}
}

func TestRunTableDuplicateEntries(t *testing.T) {
	// Two identical entries must keep distinct result rows. Before jobs
	// carried the entry position, a map[Entry]int collapsed duplicates onto
	// one index: the other row silently never received its histories.
	entries := []Entry{
		{Algo: bo.AlgoRandom, Batch: 2},
		{Algo: bo.AlgoRandom, Batch: 2},
		{Algo: bo.AlgoEasyBOA, Batch: 2},
	}
	tbl, err := RunTable(tinySpec("dup", entries, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	a, b := tbl.Rows[0], tbl.Rows[1]
	// Same entry, same seeds: the duplicate rows must agree exactly — and,
	// critically, both must be populated.
	if math.IsNaN(a.Mean) || math.IsNaN(b.Mean) || a.MeanTime <= 0 || b.MeanTime <= 0 {
		t.Fatalf("duplicate entry lost its results: %+v vs %+v", a, b)
	}
	if a.Mean != b.Mean || a.Best != b.Best || a.MeanTime != b.MeanTime {
		t.Fatalf("duplicate entries disagree: %+v vs %+v", a, b)
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tbl, err := RunTable(tinySpec("fmt", []Entry{{Algo: bo.AlgoRandom, Batch: 1}}, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Format()
	if !strings.Contains(s, "Random") || !strings.Contains(s, "Best") {
		t.Fatalf("format output:\n%s", s)
	}
	c := tbl.CSV()
	if !strings.HasPrefix(c, "algo,batch,best") || !strings.Contains(c, "Random,1") {
		t.Fatalf("csv output:\n%s", c)
	}
}

func TestSpeedups(t *testing.T) {
	entries := []Entry{
		{Algo: bo.AlgoDE, Batch: 1, MaxEvals: 100},
		{Algo: bo.AlgoEasyBOSP, Batch: 5},
		{Algo: bo.AlgoEasyBO, Batch: 5},
	}
	tbl, err := RunTable(tinySpec("spd", entries, 2))
	if err != nil {
		t.Fatal(err)
	}
	sp := tbl.Speedups()
	if len(sp) == 0 {
		t.Fatal("no speedups derived")
	}
	var sawDE, sawSP bool
	for _, s := range sp {
		if s.Factor <= 0 {
			t.Fatalf("bad factor %+v", s)
		}
		if s.Reference == "DE" {
			sawDE = true
			if s.Factor < 2 { // DE runs 4x the evals sequentially
				t.Fatalf("DE speedup %v implausibly low", s.Factor)
			}
		}
		if s.Reference == "EasyBO-SP-5" {
			sawSP = true
			if s.Factor < 1 {
				t.Fatalf("async vs sync factor %v < 1", s.Factor)
			}
		}
	}
	if !sawDE || !sawSP {
		t.Fatalf("missing expected comparisons: %+v", sp)
	}
}

func TestPaperEntriesLayout(t *testing.T) {
	e := PaperEntries(20000)
	if len(e) != 4+18 {
		t.Fatalf("entries = %d, want 22", len(e))
	}
	if e[0].Algo != bo.AlgoDE || e[0].MaxEvals != 20000 {
		t.Fatalf("first entry %+v", e[0])
	}
	// Batches must appear in 5, 10, 15 groups of six.
	for gi, b := range []int{5, 10, 15} {
		for k := 0; k < 6; k++ {
			if e[4+gi*6+k].Batch != b {
				t.Fatalf("entry %d has batch %d, want %d", 4+gi*6+k, e[4+gi*6+k].Batch, b)
			}
		}
	}
}

func TestRunFigure(t *testing.T) {
	spec := tinySpec("fig", nil, 2)
	fig, err := RunFigure(spec, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("curves = %d", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		if len(c.T) != 40 || len(c.Y) != 40 {
			t.Fatalf("grid size wrong for %s", c.Label)
		}
		// Monotone non-decreasing best-so-far.
		for i := 1; i < len(c.Y); i++ {
			if c.Y[i] < c.Y[i-1]-1e-9 {
				t.Fatalf("%s curve decreases at %d", c.Label, i)
			}
		}
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "EasyBO-3") || !strings.Contains(csv, "pBO-3") {
		t.Fatalf("figure csv:\n%s", csv)
	}
	plot := fig.ASCIIPlot(60, 12)
	if !strings.Contains(plot, "EasyBO-3") || len(strings.Split(plot, "\n")) < 12 {
		t.Fatalf("ascii plot:\n%s", plot)
	}
	// Time reductions exist for every reference curve whose final level the
	// EasyBO curve reaches (with this tiny budget that may be a subset).
	red := fig.TimeReduction()
	if len(red) == 0 {
		t.Fatalf("no time reductions derived: %+v", red)
	}
	// Rows come in curve order (a map here made two runs of repro print, and
	// would have made -json encode, the references in different orders).
	at := 0
	for _, r := range red {
		if math.IsNaN(r.Reduction) || r.Reduction >= 1 {
			t.Fatalf("bad reduction %+v", r)
		}
		for at < len(fig.Curves) && fig.Curves[at].Label != r.Label {
			at++
		}
		if at == len(fig.Curves) {
			t.Fatalf("reductions %+v are not in curve order", red)
		}
	}
	for i := 0; i < 20; i++ {
		if again := fig.TimeReduction(); !reflect.DeepEqual(again, red) {
			t.Fatalf("TimeReduction changed between calls: %+v then %+v", red, again)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{45, "45s"}, {75, "1m15s"}, {3660, "1h1m0s"}, {780072, "216h41m12s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.sec); got != c.want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", c.sec, got, c.want)
		}
	}
}

func TestScheduleDemo(t *testing.T) {
	s := ScheduleDemo()
	if !strings.Contains(s, "Synchronous") || !strings.Contains(s, "Asynchronous") {
		t.Fatalf("schedule demo:\n%s", s)
	}
	// Async makespan must not exceed sync makespan in the demo.
	var times []float64
	for _, line := range strings.Split(s, "\n") {
		if i := strings.Index(line, "makespan "); i >= 0 {
			var v float64
			if _, err := fmt.Sscanf(line[i:], "makespan %fs", &v); err == nil {
				times = append(times, v)
			}
		}
	}
	if len(times) != 2 || times[1] > times[0] {
		t.Fatalf("demo makespans %v", times)
	}
}

func TestWeightDensityDemo(t *testing.T) {
	s := WeightDensityDemo(0)
	if !strings.Contains(s, "κ") || !strings.Contains(s, "█") {
		t.Fatalf("weight density demo:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// The histogram must be visibly increasing: last bin bar longer than first.
	first := strings.Count(lines[1], "█")
	last := strings.Count(lines[len(lines)-2], "█")
	if last <= first {
		t.Fatalf("density should increase toward w=1: first=%d last=%d", first, last)
	}
}

func TestTableSignificance(t *testing.T) {
	tbl, err := RunTable(tinySpec("sig", []Entry{
		{Algo: bo.AlgoRandom, Batch: 1},
		{Algo: bo.AlgoEasyBOSeq, Batch: 1},
	}, 4))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := tbl.Significance("EasyBO", "Random")
	if !ok || p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("p = %v, ok = %v", p, ok)
	}
	if _, ok := tbl.Significance("EasyBO", "missing"); ok {
		t.Fatal("a missing row must not report a p-value")
	}
	// The board keeps the two findings apart: null is "row absent".
	bt := tbl.Board("t", [][2]string{{"EasyBO", "Random"}, {"EasyBO", "missing"}})
	if bt.Significance[0].P == nil || *bt.Significance[0].P != p || bt.Significance[1].P != nil {
		t.Fatalf("board significance %+v", bt.Significance)
	}
}
