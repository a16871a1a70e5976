package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"

	"easybo/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the goldens the tests run (testdata/repro_quick.json, testdata/verdicts.txt) from the current code")

// goldenPath is `repro -all -quick -runs 3 -json`: the whole scoreboard at
// budgets small enough to regenerate on every test run.
const goldenPath = "testdata/repro_quick.json"

// TestQuickBoardGolden regenerates the quick scoreboard and compares it with
// the committed one byte for byte. The board is a pure function of the code
// under every algorithm in the tables, so a change that moves any
// optimization history shows up here as a diff of the golden — which is what
// the reviewer of such a change reads (repro -compare prints it seed by
// seed), where the per-algorithm golden histories could only say "different".
// The regenerated board must also pass -check. Under -short only the op-amp
// half is regenerated (the class-E half is simulator-bound, ~1.5 minutes).
func TestQuickBoardGolden(t *testing.T) {
	o := options{tables: []int{1, 2}, figures: []int{4, 6}, runs: 3, quick: true}
	if testing.Short() {
		o.tables, o.figures = []int{1}, []int{4}
	}
	board, err := run(io.Discard, o)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the whole board: run without -short")
		}
		if err := board.WriteFile(goldenPath); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := harness.ReadBoard(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		golden.Tables, golden.Figures = golden.Tables[:1], golden.Figures[:1]
	}
	got, want := encode(t, board), encode(t, golden)
	if !bytes.Equal(got, want) {
		// Kept outside t.TempDir so it survives the test for -compare.
		path := "(could not be written)"
		if f, err := os.CreateTemp("", "repro_quick_*.json"); err == nil {
			path = f.Name()
			_ = f.Close()
			if err := board.WriteFile(path); err != nil {
				path = "(could not be written)"
			}
		}
		t.Fatalf("the quick board moved: optimization histories changed.\n"+
			"regenerated board kept at %s — `go run ./cmd/repro -compare %s %s` shows which rows, seed by seed;\n"+
			"if the change is meant, `go test ./cmd/repro -run QuickBoardGolden -update` rewrites the golden", path, goldenPath, path)
	}
	var out bytes.Buffer
	if !check(&out, board) {
		t.Fatalf("the regenerated board fails -check:\n%s", out.String())
	}
}

func encode(t *testing.T, b *harness.Board) []byte {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
