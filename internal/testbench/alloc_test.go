//go:build !race

package testbench

import "testing"

// TestEvalZeroAlloc extends the per-step gate of the circuit package's
// TestNewtonIterationZeroAlloc to a whole warm evaluation: a class-E
// transient with its power measurements, and a serial op-amp AC sweep with
// its Bode extraction, write only into storage the sim already owns. Left
// out of -race builds, whose runtime allocates on its own account.
func TestEvalZeroAlloc(t *testing.T) {
	ce := NewClassESim()
	clo, chi := ClassEBounds()
	cx := benchMid(clo, chi)
	oa := NewOpAmpSim()
	oa.ACWorkers = 1
	olo, ohi := OpAmpBounds()
	ox := benchMid(olo, ohi)
	cases := []struct {
		name string
		runs int
		eval func()
	}{
		{"classe", 3, func() { ce.Eval(cx) }},
		{"opamp-serial", 50, func() { oa.Eval(ox) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(tc.runs, tc.eval); allocs != 0 {
				t.Fatalf("warm %s Eval allocated %.1f/op, want 0", tc.name, allocs)
			}
		})
	}
}
