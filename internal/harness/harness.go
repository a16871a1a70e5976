// Package harness reproduces the paper's experimental artifacts: Table I
// (op-amp) and Table II (class-E) with their Best/Worst/Mean/Std/Time
// columns, the best-FOM-versus-wall-clock curves of Figures 4 and 6, the
// async/sync schedule illustration of Figure 1, and the weight-density
// illustration of Figure 2. Runs are distributed over CPU cores and are
// deterministic given the base seed.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"easybo/internal/bo"
	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/stats"
)

// Entry is one table row to produce: an algorithm at a batch size.
type Entry struct {
	Algo     bo.Algorithm
	Batch    int
	MaxEvals int // overrides Spec.MaxEvals when > 0 (used for DE)
}

// Spec describes a full table experiment.
type Spec struct {
	Name       string
	Problem    *objective.Problem
	Entries    []Entry
	Runs       int   // repetitions per entry (paper: 20)
	MaxEvals   int   // simulations per run including init (150 / 450)
	InitPoints int   // initial design size (20)
	BaseSeed   int64 // master seed
	Parallel   int   // concurrent runs (default NumCPU)
	// Surrogate cost knobs, forwarded to bo.Config.
	FitIters   int
	RefitEvery int
	// Progress, if non-nil, receives one line per finished run.
	Progress func(label string, run int, best float64)
}

// seed is the master seed of repetition run, the same for every entry, so
// that rows — and two builds of the same row — pair up seed by seed.
func (s *Spec) seed(run int) int64 { return s.BaseSeed + 7919*int64(run+1) }

// Row is one aggregated table row.
type Row struct {
	Label                  string
	Algo                   bo.Algorithm
	Batch                  int
	Best, Worst, Mean, Std float64
	MeanTime               float64 // virtual seconds
	Runs                   int
}

// Table is the result of RunTable.
type Table struct {
	Spec      Spec
	Rows      []Row
	Histories map[string][]*bo.History // by row label, in run order
}

// RunTable executes Spec.Runs runs of every entry, in parallel across CPU
// cores, and aggregates the paper's table columns.
func RunTable(spec Spec) (*Table, error) {
	if spec.Runs <= 0 {
		spec.Runs = 20
	}
	if spec.Parallel <= 0 {
		spec.Parallel = runtime.NumCPU()
	}
	if spec.MaxEvals <= 0 {
		spec.MaxEvals = 150
	}
	if spec.InitPoints <= 0 {
		spec.InitPoints = core.DefaultInitPoints
	}

	// Jobs carry the entry's position: two identical Entry values (the same
	// algorithm/batch listed twice, e.g. for a replication column) must keep
	// distinct result rows, so indexing by Entry value would be wrong.
	type job struct {
		entryIdx int
		entry    Entry
		run      int
	}
	type outcome struct {
		entryIdx int
		run      int
		hist     *bo.History
		err      error
	}
	var jobs []job
	for i, e := range spec.Entries {
		for r := 0; r < spec.Runs; r++ {
			jobs = append(jobs, job{i, e, r})
		}
	}

	results := make([][]*bo.History, len(spec.Entries))
	for i := range results {
		results[i] = make([]*bo.History, spec.Runs)
	}

	jobCh := make(chan job)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < spec.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				cfg := bo.Config{
					Algo:       j.entry.Algo,
					BatchSize:  j.entry.Batch,
					InitPoints: spec.InitPoints,
					MaxEvals:   spec.MaxEvals,
					Seed:       spec.seed(j.run),
					FitIters:   spec.FitIters,
					RefitEvery: spec.RefitEvery,
				}
				if j.entry.MaxEvals > 0 {
					cfg.MaxEvals = j.entry.MaxEvals
				}
				h, err := bo.Run(spec.Problem, cfg)
				outCh <- outcome{j.entryIdx, j.run, h, err}
			}
		}()
	}
	go func() {
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
		wg.Wait()
		close(outCh)
	}()

	var firstErr error
	for o := range outCh {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		results[o.entryIdx][o.run] = o.hist
		if spec.Progress != nil {
			e := spec.Entries[o.entryIdx]
			spec.Progress(e.Algo.Label(e.Batch), o.run, o.hist.BestY)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	tbl := &Table{Spec: spec, Histories: map[string][]*bo.History{}}
	for i, e := range spec.Entries {
		label := e.Algo.Label(e.Batch)
		var bests, times []float64
		for _, h := range results[i] {
			bests = append(bests, h.BestY)
			times = append(times, h.Makespan)
		}
		s := stats.Summarize(bests)
		tbl.Rows = append(tbl.Rows, Row{
			Label: label, Algo: e.Algo, Batch: e.Batch,
			Best: s.Best, Worst: s.Worst, Mean: s.Mean, Std: s.Std,
			MeanTime: stats.Mean(times), Runs: spec.Runs,
		})
		tbl.Histories[label] = results[i]
	}
	return tbl, nil
}

// FormatDuration renders virtual seconds in the paper's h/m/s style.
func FormatDuration(sec float64) string {
	s := int(math.Round(sec))
	h := s / 3600
	m := (s % 3600) / 60
	r := s % 60
	switch {
	case h > 0:
		return fmt.Sprintf("%dh%dm%ds", h, m, r)
	case m > 0:
		return fmt.Sprintf("%dm%ds", m, r)
	default:
		return fmt.Sprintf("%ds", r)
	}
}

// Format renders the table in the paper's layout.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d runs, %d sims (init %d)\n",
		t.Spec.Name, t.Spec.Runs, t.Spec.MaxEvals, t.Spec.InitPoints)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %10s %14s\n",
		"Algo", "Best", "Worst", "Mean", "Std", "Time")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %12.3f %12.3f %12.3f %10.3f %14s\n",
			r.Label, r.Best, r.Worst, r.Mean, r.Std, FormatDuration(r.MeanTime))
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("algo,batch,best,worst,mean,std,mean_time_s,runs\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s,%d,%g,%g,%g,%g,%g,%d\n",
			r.Label, r.Batch, r.Best, r.Worst, r.Mean, r.Std, r.MeanTime, r.Runs)
	}
	return b.String()
}

// Row returns the row with the given label (nil if absent).
func (t *Table) Row(label string) *Row {
	for i := range t.Rows {
		if t.Rows[i].Label == label {
			return &t.Rows[i]
		}
	}
	return nil
}

// Speedup holds the headline time ratios the paper quotes (its abstract's
// "7.35× vs sync batch BO" and "1935× vs DE" claims).
type Speedup struct {
	Label     string
	Reference string
	Factor    float64 // reference mean time / label mean time
}

// Speedups derives time ratios of every EasyBO row against DE and against
// the synchronous algorithms at the same batch size.
func (t *Table) Speedups() []Speedup {
	var out []Speedup
	de := t.Row("DE")
	for _, r := range t.Rows {
		if r.Algo != bo.AlgoEasyBO && r.Algo != bo.AlgoEasyBOSeq {
			continue
		}
		if de != nil && r.MeanTime > 0 {
			out = append(out, Speedup{r.Label, "DE", de.MeanTime / r.MeanTime})
		}
		for _, ref := range []bo.Algorithm{bo.AlgoPBO, bo.AlgoPHCBO, bo.AlgoEasyBOSP} {
			if rr := t.Row(ref.Label(r.Batch)); rr != nil && r.MeanTime > 0 && r.Algo == bo.AlgoEasyBO {
				out = append(out, Speedup{r.Label, rr.Label, rr.MeanTime / r.MeanTime})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Reference < out[j].Reference
	})
	return out
}

// PaperEntries returns the paper's table layout: the sequential block (DE,
// LCB, EI, EasyBO) followed by the six batch algorithms at B = 5, 10, 15.
// deEvals is the DE simulation budget (20000 for Table I, 15000 for II).
func PaperEntries(deEvals int) []Entry {
	entries := []Entry{
		{Algo: bo.AlgoDE, Batch: 1, MaxEvals: deEvals},
		{Algo: bo.AlgoLCB, Batch: 1},
		{Algo: bo.AlgoEI, Batch: 1},
		{Algo: bo.AlgoEasyBOSeq, Batch: 1},
	}
	for _, b := range []int{5, 10, 15} {
		for _, a := range []bo.Algorithm{
			bo.AlgoPBO, bo.AlgoPHCBO, bo.AlgoEasyBOS, bo.AlgoEasyBOA, bo.AlgoEasyBOSP, bo.AlgoEasyBO,
		} {
			entries = append(entries, Entry{Algo: a, Batch: b})
		}
	}
	return entries
}

// Significance runs a two-sided Mann–Whitney rank-sum test between the
// best-FOM distributions of two rows, returning the p-value; ok is false,
// and p meaningless, when either row is missing. Used to state whether an
// algorithm's advantage in the table is statistically meaningful at the
// chosen run count.
func (t *Table) Significance(labelA, labelB string) (p float64, ok bool) {
	ha, ok1 := t.Histories[labelA]
	hb, ok2 := t.Histories[labelB]
	if !ok1 || !ok2 {
		return 0, false
	}
	_, p = stats.MannWhitneyU(bestsOf(ha), bestsOf(hb))
	return p, true
}

// bestsOf lists the runs' best objective values, in run order.
func bestsOf(hs []*bo.History) []float64 {
	out := make([]float64, len(hs))
	for i, h := range hs {
		out[i] = h.BestY
	}
	return out
}
