package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"easybo/internal/bo"
	"easybo/internal/stats"
)

// BoardVersion is the schema version of the Board document.
const BoardVersion = 1

// Board is the paper-fidelity scoreboard: everything cmd/repro and
// cmd/ablate compute, as one document. It is a pure function of the code
// and the flags it records — every run is on the virtual executor at a seed
// derived from the table's base seed — so two builds can be compared seed by
// seed (Compare) and the paper's qualitative claims asserted on it (Check).
// A change that alters optimization histories is judged by the diff of two
// boards, the way a change that must not alter them is judged by a digest.
type Board struct {
	Version int           `json:"version"`
	Quick   bool          `json:"quick"` // reduced budgets (repro -quick)
	Tables  []BoardTable  `json:"tables,omitempty"`
	Figures []BoardFigure `json:"figures,omitempty"`
}

// BoardTable is one table of rows run at the same seeds: Table I or II, or
// one of cmd/ablate's sweeps.
type BoardTable struct {
	Name       string     `json:"name"` // "table1", "table2", "ablate-lambda", …
	Title      string     `json:"title"`
	MaxEvals   int        `json:"max_evals"`
	InitPoints int        `json:"init_points"`
	Seeds      []int64    `json:"seeds"` // seed of run r, for every row
	Rows       []BoardRow `json:"rows"`
	Speedups   []Speedup  `json:"speedups,omitempty"`
	// Significance holds the rank-sum tests the table prints.
	Significance []BoardP `json:"significance,omitempty"`
}

// BoardRow is one configuration's outcome over the table's seeds.
type BoardRow struct {
	Label    string    `json:"label"`
	Algo     string    `json:"algo"`
	Batch    int       `json:"batch"`
	Sims     int       `json:"sims"` // simulations per run
	Best     float64   `json:"best"`
	Worst    float64   `json:"worst"`
	Mean     float64   `json:"mean"`
	Std      float64   `json:"std"`
	MeanTime float64   `json:"mean_time_s"` // virtual seconds
	Bests    []float64 `json:"bests"`       // best FOM of run r, Seeds order
}

// BoardP is one rank-sum test between two rows' best-FOM distributions. P is
// null when either row is absent from the table, which is not the same
// finding as p = 1.
type BoardP struct {
	A string   `json:"a"`
	B string   `json:"b"`
	P *float64 `json:"p"`
}

// BoardFigure summarizes one best-FOM-versus-time figure.
type BoardFigure struct {
	Name   string       `json:"name"` // "figure4", "figure6"
	Title  string       `json:"title"`
	Batch  int          `json:"batch"`
	Curves []BoardCurve `json:"curves"`
	// TimeReduction is Figure.TimeReduction, in curve order.
	TimeReduction []Reduction `json:"time_reduction"`
}

// BoardCurve is a mean best-so-far curve sampled at a tenth, a quarter, a
// half, three quarters and the end of the figure's time span.
type BoardCurve struct {
	Label string    `json:"label"`
	T     []float64 `json:"t_s"`
	Y     []float64 `json:"y"`
}

// NewBoardRow aggregates one configuration's runs.
func NewBoardRow(label string, algo bo.Algorithm, batch, sims int, hs []*bo.History) BoardRow {
	bests := bestsOf(hs)
	times := make([]float64, len(hs))
	for i, h := range hs {
		times[i] = h.Makespan
	}
	s := stats.Summarize(bests)
	return BoardRow{
		Label: label, Algo: string(algo), Batch: batch, Sims: sims,
		Best: s.Best, Worst: s.Worst, Mean: s.Mean, Std: s.Std,
		MeanTime: stats.Mean(times), Bests: bests,
	}
}

// Board renders a finished table as a board table named name, with the
// rank-sum tests of pairs (label A, label B).
func (t *Table) Board(name string, pairs [][2]string) BoardTable {
	bt := BoardTable{
		Name: name, Title: t.Spec.Name,
		MaxEvals: t.Spec.MaxEvals, InitPoints: t.Spec.InitPoints,
		Speedups: t.Speedups(),
	}
	for r := 0; r < t.Spec.Runs; r++ {
		bt.Seeds = append(bt.Seeds, t.Spec.seed(r))
	}
	for i, r := range t.Rows {
		sims := t.Spec.MaxEvals
		if e := t.Spec.Entries[i]; e.MaxEvals > 0 {
			sims = e.MaxEvals
		}
		bt.Rows = append(bt.Rows, NewBoardRow(r.Label, r.Algo, r.Batch, sims, t.Histories[r.Label]))
	}
	for _, pr := range pairs {
		bp := BoardP{A: pr[0], B: pr[1]}
		if p, ok := t.Significance(pr[0], pr[1]); ok {
			bp.P = &p
		}
		bt.Significance = append(bt.Significance, bp)
	}
	return bt
}

// Board summarizes a finished figure as a board figure named name.
func (f *Figure) Board(name string, batch int) BoardFigure {
	bf := BoardFigure{Name: name, Title: f.Name, Batch: batch, TimeReduction: f.TimeReduction()}
	for _, c := range f.Curves {
		bc := BoardCurve{Label: c.Label}
		n := len(c.T)
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 1} {
			i := max(int(frac*float64(n))-1, 0)
			bc.T, bc.Y = append(bc.T, c.T[i]), append(bc.Y, c.Y[i])
		}
		bf.Curves = append(bf.Curves, bc)
	}
	return bf
}

// WriteFile writes the board as indented JSON. The encoding is
// deterministic: fixed field order, slices only, and encoding/json's
// shortest round-tripping float form.
func (b *Board) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return fmt.Errorf("harness: encoding the board: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBoard reads a board written by WriteFile.
func ReadBoard(path string) (*Board, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Board
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if b.Version != BoardVersion {
		return nil, fmt.Errorf("harness: %s: board version %d, want %d", path, b.Version, BoardVersion)
	}
	return &b, nil
}

func (bt *BoardTable) row(label string) *BoardRow {
	for i := range bt.Rows {
		if bt.Rows[i].Label == label {
			return &bt.Rows[i]
		}
	}
	return nil
}

// Assertion is one of the paper's qualitative claims evaluated on a board.
type Assertion struct {
	Where  string // table or figure name
	Claim  string // what the paper says, with the numbers it was judged on
	Passed bool
}

// A quality claim "A is no worse than B" tolerates a shortfall of
// t·√(s_A²/n_A + s_B²/n_B): the standard error of the difference of the two
// row means, from the per-seed bests of the board under check, times the
// 97.5 % Student-t quantile at the Welch degrees of freedom of the two rows
// (welchTolerance). One rule at every run count: t is 2.1 at ten seeds, 2.3
// at five and 2.8 at three. The first version of this check used a flat two
// standard errors; the parent's boards passed it at three, five and ten
// seeds, but two is a 97.5 % bound only for a known spread — at three seeds
// it is an 88 % interval, 2½ false alarms a board of 44 claims — and the
// first board it judged that the parent did not write, the gradient
// refinement's three-seed quick board, failed two claims by 1.4 % and 0.9 %
// of their bounds while its five- and ten-seed boards passed (DESIGN.md §15
// lists them). A real regression of a row — its mean falling by its own seed
// Std — is three to four standard errors at five and ten seeds.
func welchTolerance(a, b *BoardRow) float64 {
	va, vb := a.Std*a.Std/float64(len(a.Bests)), b.Std*b.Std/float64(len(b.Bests))
	if va+vb == 0 {
		return 0
	}
	df := (va + vb) * (va + vb) / (va*va/float64(len(a.Bests)-1) + vb*vb/float64(len(b.Bests)-1))
	return stats.StudentT975(df) * math.Sqrt(va+vb)
}

// deShare is how far below DE's mean a sequential EasyBO run may end, as a
// share of DE's mean, on the paper's budgets and on -quick's (a third of the
// BO budget, where the surrogate has 30 model-based simulations in all), when
// that is more than welchTolerance. Measured at the parent: 3.0 %
// (op-amp, ten seeds) on the full budget; 14.4 % (op-amp) and 20.7 %
// (class-E) under -quick at five seeds.
const (
	deShareFull  = 0.10
	deShareQuick = 0.25
)

// simShare is the most simulations sequential EasyBO may use as a share of
// DE's: the paper's budgets are 150 of 20000 on the op-amp (its "< 1 %") and
// 450 of 15000 on the class-E amplifier; -quick takes a third of the BO
// budget and a tenth of DE's, and the limit goes through the same divisors.
func simShare(table string, quick bool) float64 {
	share := 0.01
	if table == "table2" {
		share = 0.03
	}
	if quick {
		share *= 10.0 / 3
	}
	return share
}

// Check evaluates the paper's qualitative claims on every paper table and
// figure in the board (ablation tables assert nothing). A claim about a row
// the board does not hold is skipped, so a board of one table checks that
// table.
func (b *Board) Check() []Assertion {
	var out []Assertion
	for i := range b.Tables {
		if bt := &b.Tables[i]; strings.HasPrefix(bt.Name, "table") {
			out = append(out, bt.check(b.Quick)...)
		}
	}
	for _, bf := range b.Figures {
		for _, r := range bf.TimeReduction {
			out = append(out, Assertion{bf.Name,
				fmt.Sprintf("EasyBO-%d reaches %s's final mean FOM no later than it does: time saved %.1f %% ≥ 0",
					bf.Batch, r.Label, 100*r.Reduction), r.Reduction >= 0})
		}
	}
	return out
}

func (bt *BoardTable) check(quick bool) []Assertion {
	var out []Assertion
	add := func(pass bool, format string, args ...any) {
		out = append(out, Assertion{bt.Name, fmt.Sprintf(format, args...), pass})
	}
	// noWorse asserts mean(a) ≥ mean(b) − tol for the rows that exist, with
	// tol the larger of welchTolerance and floor.
	noWorse := func(what, a, b string, floor float64) {
		ra, rb := bt.row(a), bt.row(b)
		if ra == nil || rb == nil {
			return
		}
		tol := math.Max(welchTolerance(ra, rb), floor)
		add(ra.Mean >= rb.Mean-tol, "%s: %s mean %.4g ≥ %s mean %.4g − %.3g", what, a, ra.Mean, b, rb.Mean, tol)
	}
	label := func(a bo.Algorithm, b int) string { return a.Label(b) }

	batches := []int{5, 10, 15}
	saving := map[int]float64{}
	for _, b := range batches {
		a, s := bt.row(label(bo.AlgoEasyBOA, b)), bt.row(label(bo.AlgoEasyBOS, b))
		if a == nil || s == nil {
			continue
		}
		saving[b] = 1 - a.MeanTime/s.MeanTime
		add(a.MeanTime < s.MeanTime, "asynchronous dispatch saves wall time: %s %.0f s < %s %.0f s (exact: virtual time)",
			a.Label, a.MeanTime, s.Label, s.MeanTime)
	}
	if s5, ok5 := saving[5]; ok5 {
		if s15, ok15 := saving[15]; ok15 {
			add(s15 > s5, "the saving grows with the batch: %.1f %% at B = 15 > %.1f %% at B = 5", 100*s15, 100*s5)
		}
	}
	for _, b := range batches {
		noWorse("EasyBO against the fixed-ladder baselines", label(bo.AlgoEasyBO, b), label(bo.AlgoPBO, b), 0)
		noWorse("EasyBO against the fixed-ladder baselines", label(bo.AlgoEasyBO, b), label(bo.AlgoPHCBO, b), 0)
		noWorse("penalisation helps at B ≥ 5", label(bo.AlgoEasyBO, b), label(bo.AlgoEasyBOA, b), 0)
		noWorse("penalisation helps at B ≥ 5", label(bo.AlgoEasyBOSP, b), label(bo.AlgoEasyBOS, b), 0)
	}
	if seq, de := bt.row(label(bo.AlgoEasyBOSeq, 1)), bt.row(label(bo.AlgoDE, 1)); seq != nil && de != nil {
		share := deShareFull
		if quick {
			share = deShareQuick
		}
		noWorse("sequential EasyBO against DE", seq.Label, de.Label, share*math.Abs(de.Mean))
		got, most := float64(seq.Sims)/float64(de.Sims), simShare(bt.Name, quick)
		add(got <= most+1e-12, "at a fraction of DE's simulations: %d of %d = %.2f %% ≤ %.2f %%", seq.Sims, de.Sims, 100*got, 100*most)
	}
	if e5, e15 := bt.row(label(bo.AlgoEasyBO, 5)), bt.row(label(bo.AlgoEasyBO, 15)); e5 != nil && e15 != nil {
		noWorse("graceful degradation from B = 5 to 15", e15.Label, e5.Label, 0)
		add(e15.MeanTime < e5.MeanTime/2, "for less than half the wall time: %.0f s < %.0f s / 2", e15.MeanTime, e5.MeanTime)
	}
	return out
}

// Compare pairs every row the two boards share, seed by seed, and writes one
// line per row to w: both means, how many seeds b won and lost, and the
// exact two-sided sign-test p of that split — the benchmark's alternating
// pairs, applied to quality. A row is flagged WORSE when b loses at p < 0.05.
// Beside the quality rows it prints what asynchronous dispatch saves in each
// board. It returns the number of rows flagged.
func Compare(w io.Writer, a, b *Board) int {
	worse := 0
	for i := range a.Tables {
		ta := &a.Tables[i]
		var tb *BoardTable
		for j := range b.Tables {
			if b.Tables[j].Name == ta.Name {
				tb = &b.Tables[j]
			}
		}
		if tb == nil {
			continue
		}
		if !slices.Equal(ta.Seeds, tb.Seeds) || ta.MaxEvals != tb.MaxEvals {
			fmt.Fprintf(w, "%s: run at different seeds or budgets, not comparable\n", ta.Name)
			continue
		}
		fmt.Fprintf(w, "%s — %d paired seeds\n", ta.Name, len(ta.Seeds))
		fmt.Fprintf(w, "  %-14s %21s %21s %5s %5s %5s %8s\n", "row", "A mean ± std", "B mean ± std", "won", "lost", "tied", "p(sign)")
		for _, ra := range ta.Rows {
			rb := tb.row(ra.Label)
			if rb == nil || len(rb.Bests) != len(ra.Bests) {
				continue
			}
			var won, lost, tied int
			for k := range ra.Bests {
				switch {
				case rb.Bests[k] > ra.Bests[k]:
					won++
				case rb.Bests[k] < ra.Bests[k]:
					lost++
				default:
					tied++
				}
			}
			p := stats.SignTest(won, lost)
			flag := ""
			if lost > won && p < 0.05 {
				flag = "  WORSE"
				worse++
			}
			fmt.Fprintf(w, "  %-14s %12.4g ± %-6.3g %12.4g ± %-6.3g %5d %5d %5d %8.3f%s\n",
				ra.Label, ra.Mean, ra.Std, rb.Mean, rb.Std, won, lost, tied, p, flag)
		}
		for _, batch := range []int{5, 10, 15} {
			la, ls := bo.AlgoEasyBOA.Label(batch), bo.AlgoEasyBOS.Label(batch)
			aa, as, ba, bs := ta.row(la), ta.row(ls), tb.row(la), tb.row(ls)
			if aa == nil || as == nil || ba == nil || bs == nil {
				continue
			}
			fmt.Fprintf(w, "  %s saves %.2f %% of %s's wall time in A, %.2f %% in B\n",
				la, 100*(1-aa.MeanTime/as.MeanTime), ls, 100*(1-ba.MeanTime/bs.MeanTime))
		}
	}
	for _, fa := range a.Figures {
		for _, fb := range b.Figures {
			if fa.Name != fb.Name {
				continue
			}
			for _, r := range fa.TimeReduction {
				for _, q := range fb.TimeReduction {
					if q.Label == r.Label {
						fmt.Fprintf(w, "%s: time saved against %s %.1f %% in A, %.1f %% in B\n",
							fa.Name, r.Label, 100*r.Reduction, 100*q.Reduction)
					}
				}
			}
		}
	}
	return worse
}
