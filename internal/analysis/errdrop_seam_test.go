package analysis

import (
	"go/types"
	"testing"
)

// readOnlySeam are the WAL filesystem seam's error-returning methods that
// errdrop deliberately does not police, each with the reason a dropped
// error there loses no acknowledged byte.
var readOnlySeam = map[string]string{
	"stat":     "reports whether a path exists; writes nothing",
	"readDir":  "lists a directory; writes nothing",
	"readFile": "reads a file whole; writes nothing",
}

// TestErrDropCoversTheWALSeam holds errdrop's name list to the seam the WAL
// writes through: every method of wal.fsys and wal.file whose last result is
// an error is a durability verb or on readOnlySeam with a reason, and every
// readOnlySeam entry is such a method and no verb. errdrop matches calls by
// bare method name, so a seam method added or renamed without a decision
// here would otherwise go unchecked without a word.
func TestErrDropCoversTheWALSeam(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the WAL package; skipped in -short")
	}
	pkgs, err := LoadPackages("", "easybo/internal/serve/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want the WAL alone", len(pkgs))
	}
	seen := map[string]bool{}
	for _, name := range []string{"fsys", "file"} {
		obj := pkgs[0].Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("wal.%s is gone; point this test at the seam the WAL writes through", name)
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			t.Fatalf("wal.%s is not an interface", name)
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			res := m.Type().(*types.Signature).Results()
			if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
				continue
			}
			seen[m.Name()] = true
			if !durabilityVerbs[m.Name()] && readOnlySeam[m.Name()] == "" {
				t.Errorf("wal.%s.%s returns an error but is neither a durability verb (errdrop.go) nor on readOnlySeam with a reason",
					name, m.Name())
			}
		}
	}
	for name, reason := range readOnlySeam {
		switch {
		case !seen[name]:
			t.Errorf("readOnlySeam lists %q, which is no error-returning seam method", name)
		case durabilityVerbs[name]:
			t.Errorf("readOnlySeam lists %q, which is a durability verb too", name)
		case reason == "":
			t.Errorf("readOnlySeam lists %q without a reason", name)
		}
	}
}
