package harness

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"easybo/internal/bo"
	"easybo/internal/stats"
)

// boardRow builds a row whose statistics follow from its per-seed bests.
func boardRow(algo bo.Algorithm, batch, sims int, meanTime float64, bests ...float64) BoardRow {
	s := stats.Summarize(bests)
	return BoardRow{Label: algo.Label(batch), Algo: string(algo), Batch: batch, Sims: sims,
		Best: s.Best, Worst: s.Worst, Mean: s.Mean, Std: s.Std, MeanTime: meanTime, Bests: bests}
}

// paperBoard is a small board on which every claim of the paper holds.
func paperBoard() *Board {
	t := BoardTable{Name: "table1", MaxEvals: 150, Seeds: []int64{1, 2, 3, 4}}
	t.Rows = append(t.Rows,
		boardRow(bo.AlgoDE, 1, 20000, 9e5, 100, 101, 99, 100),
		boardRow(bo.AlgoEasyBOSeq, 1, 150, 6000, 97, 99, 96, 98))
	for _, b := range []int{5, 10, 15} {
		sync, async := 6000/float64(b), 6000/float64(b)*(1-0.01*float64(b))
		t.Rows = append(t.Rows,
			boardRow(bo.AlgoPBO, b, 150, sync, 90, 91, 89, 90),
			boardRow(bo.AlgoPHCBO, b, 150, sync, 90, 92, 89, 91),
			boardRow(bo.AlgoEasyBOS, b, 150, sync, 93, 94, 92, 93),
			boardRow(bo.AlgoEasyBOA, b, 150, async, 93, 95, 92, 94),
			boardRow(bo.AlgoEasyBOSP, b, 150, sync, 95, 96, 94, 95),
			boardRow(bo.AlgoEasyBO, b, 150, async, 95, 97, 94, 96))
	}
	return &Board{Version: BoardVersion, Tables: []BoardTable{t}, Figures: []BoardFigure{{
		Name: "figure4", Batch: 15, TimeReduction: []Reduction{{"pBO-15", 0.3}, {"pHCBO-15", 0.25}},
	}}}
}

func failed(as []Assertion) []string {
	var out []string
	for _, a := range as {
		if !a.Passed {
			out = append(out, a.Claim)
		}
	}
	return out
}

// TestBoardCheck: every claim passes on a board where the paper's findings
// hold, and each kind of claim fails on the board that breaks it.
func TestBoardCheck(t *testing.T) {
	b := paperBoard()
	as := b.Check()
	if f := failed(as); len(f) != 0 || len(as) != 22 {
		t.Fatalf("%d assertions, failed: %q", len(as), f)
	}
	cases := []struct {
		name   string
		break_ func(t *BoardTable, f *BoardFigure)
		want   string // substring of the one claim that must fail
	}{
		{"async slower than sync", func(t *BoardTable, _ *BoardFigure) { t.row("EasyBO-A-10").MeanTime = 601 }, "EasyBO-A-10"},
		{"saving shrinks with B", func(t *BoardTable, _ *BoardFigure) { t.row("EasyBO-A-15").MeanTime = 399 }, "saving grows"},
		{"EasyBO under pBO", func(t *BoardTable, _ *BoardFigure) {
			*t.row("pBO-5") = boardRow(bo.AlgoPBO, 5, 150, 1200, 99, 100, 98, 99)
		}, "EasyBO-5 mean 95.5 ≥ pBO-5"},
		{"penalisation hurts", func(t *BoardTable, _ *BoardFigure) {
			*t.row("EasyBO-S-15") = boardRow(bo.AlgoEasyBOS, 15, 150, 400, 99, 100, 98, 99)
		}, "EasyBO-SP-15 mean 95 ≥ EasyBO-S-15"},
		{"far behind DE", func(t *BoardTable, _ *BoardFigure) {
			*t.row("EasyBO") = boardRow(bo.AlgoEasyBOSeq, 1, 150, 6000, 80, 82, 79, 81)
		}, "sequential EasyBO against DE"},
		{"too many simulations", func(t *BoardTable, _ *BoardFigure) { t.row("EasyBO").Sims = 400 }, "fraction of DE's simulations"},
		{"collapse at B = 15", func(t *BoardTable, _ *BoardFigure) {
			*t.row("EasyBO-15") = boardRow(bo.AlgoEasyBO, 15, 150, 340, 91.5, 92.5, 90.5, 91.5)
		}, "graceful degradation"},
		{"EasyBO late in the figure", func(_ *BoardTable, f *BoardFigure) { f.TimeReduction[1].Reduction = -0.1 }, "pHCBO-15's final mean"},
	}
	for _, c := range cases {
		b := paperBoard()
		c.break_(&b.Tables[0], &b.Figures[0])
		f := failed(b.Check())
		hit := false
		for _, claim := range f {
			hit = hit || strings.Contains(claim, c.want)
		}
		if !hit {
			t.Errorf("%s: failed claims %q, want one mentioning %q", c.name, f, c.want)
		}
	}
	// A quick board carries the DE tolerances of its budgets.
	q := paperBoard()
	q.Quick = true
	q.Tables[0].row("EasyBO").Sims, q.Tables[0].row("DE").Sims = 50, 2000
	*q.Tables[0].row("EasyBO") = boardRow(bo.AlgoEasyBOSeq, 1, 50, 2000, 80, 82, 79, 81)
	if f := failed(q.Check()); len(f) != 0 {
		t.Fatalf("quick board: failed %q", f)
	}
}

// TestBoardCompare pairs seeds: a row that loses on every one of six seeds is
// flagged (sign-test p = 2/64), one that loses on four of six is not, and
// boards run at other seeds are refused, not compared.
func TestBoardCompare(t *testing.T) {
	mk := func(easy, pbo []float64) *Board {
		return &Board{Version: BoardVersion, Tables: []BoardTable{{
			Name: "table1", MaxEvals: 150, Seeds: []int64{1, 2, 3, 4, 5, 6},
			Rows: []BoardRow{boardRow(bo.AlgoEasyBO, 5, 150, 10, easy...), boardRow(bo.AlgoPBO, 5, 150, 12, pbo...)},
		}}}
	}
	a := mk([]float64{10, 11, 12, 13, 14, 15}, []float64{5, 6, 7, 8, 9, 10})
	b := mk([]float64{9, 10, 11, 12, 13, 14}, []float64{6, 7, 6, 7, 8, 9})
	var out bytes.Buffer
	if worse := Compare(&out, a, b); worse != 1 {
		t.Fatalf("%d rows flagged, want 1:\n%s", worse, out.String())
	}
	for _, want := range []string{"EasyBO-5", "    0     6     0    0.031  WORSE", "    2     4     0    0.688\n"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if worse := Compare(&out, b, a); worse != 0 {
		t.Fatalf("the better board was flagged:\n%s", out.String())
	}
	b.Tables[0].Seeds[5] = 7
	out.Reset()
	if worse := Compare(&out, a, b); worse != 0 || !strings.Contains(out.String(), "not comparable") {
		t.Fatalf("boards at different seeds were compared:\n%s", out.String())
	}
}

func TestBoardFileRoundTrip(t *testing.T) {
	b := paperBoard()
	path := filepath.Join(t.TempDir(), "b.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBoard(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("board changed through the file:\n%+v\n%+v", got, b)
	}
}
