package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"easybo/internal/harness"
)

// verdictsPath holds what -check says of every committed board: one line per
// claim — board, verdict, where, claim with the numbers it was judged on.
const verdictsPath = "testdata/verdicts.txt"

// knownFailures names the claims a committed board fails, by board and the
// start of the claim. Generation 3's ten-seed Table I fails graceful
// degradation: EasyBO-15's mean 2877 against EasyBO-5's 3148 less the
// tolerance 262, because EasyBO-5 rose, not because EasyBO-15 fell
// (DESIGN §18.2). A generation that mends it, or breaks another claim,
// changes this list along with the golden.
var knownFailures = map[string]string{
	"gen3_table1.json": "graceful degradation from B = 5 to 15:",
}

// TestCommittedBoardVerdicts runs -check over the quick golden and every
// board under testdata/boards and pins each claim's verdict, so a claim
// that flips on a committed board fails a test instead of a footnote. It
// reads JSON only. `go test ./cmd/repro -run CommittedBoardVerdicts -update`
// rewrites the golden after a change to the boards or the claims.
func TestCommittedBoardVerdicts(t *testing.T) {
	paths, err := filepath.Glob("testdata/boards/*.json")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	paths = append([]string{goldenPath}, paths...)
	var got bytes.Buffer
	failed := map[string]string{}
	for _, path := range paths {
		b, err := harness.ReadBoard(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		for _, a := range b.Check() {
			verdict := "ok  "
			if !a.Passed {
				verdict = "FAIL"
				if prefix, ok := knownFailures[name]; !ok || !strings.HasPrefix(a.Claim, prefix) {
					t.Errorf("%s fails a claim no one named: %s: %s", name, a.Where, a.Claim)
				}
				failed[name] = a.Claim
			}
			fmt.Fprintf(&got, "%s\t%s\t%s\t%s\n", name, verdict, a.Where, a.Claim)
		}
	}
	for name, prefix := range knownFailures {
		if claim, ok := failed[name]; !ok || !strings.HasPrefix(claim, prefix) {
			t.Errorf("%s no longer fails %q: take it out of knownFailures", name, prefix)
		}
	}
	if *update {
		if err := os.WriteFile(verdictsPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(verdictsPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("a verdict moved at line %d of %s:\n got  %q\n want %q\n"+
				"if the change is meant, `go test ./cmd/repro -run CommittedBoardVerdicts -update` rewrites it",
				i+1, verdictsPath, g, w)
		}
	}
}
