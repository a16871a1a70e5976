package testbench

import (
	"testing"

	"easybo/internal/circuit"
)

// Benchmarks of the two testbench evaluations on both solver paths: the
// class-E transient is the transient-dominated workload, the op-amp AC
// sweep the AC-dominated one.

func benchMid(lo, hi []float64) []float64 {
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = 0.5 * (lo[i] + hi[i])
	}
	return x
}

// BenchmarkClassEEvalSparse measures one full class-E evaluation
// (switching transient + measurements) on the compiled sparse kernel with
// a reused simulator instance.
func BenchmarkClassEEvalSparse(b *testing.B) {
	lo, hi := ClassEBounds()
	x := benchMid(lo, hi)
	s := NewClassESim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := s.Eval(x); !p.Valid {
			b.Fatal("invalid mid-point evaluation")
		}
	}
}

// BenchmarkClassEEvalDense is the dense-reference baseline of the same
// evaluation (the seed implementation's cost).
func BenchmarkClassEEvalDense(b *testing.B) {
	lo, hi := ClassEBounds()
	x := benchMid(lo, hi)
	s := NewClassESim()
	s.SetDense(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := s.Eval(x); !p.Valid {
			b.Fatal("invalid mid-point evaluation")
		}
	}
}

// BenchmarkTranStepSparse measures the per-timestep cost of the class-E
// transient alone (excluding Fourier/power measurement) on the sparse
// kernel, reported in ns/step.
func BenchmarkTranStepSparse(b *testing.B) {
	benchTranStep(b, false)
}

// BenchmarkTranStepDense is the dense baseline of the same transient.
func BenchmarkTranStepDense(b *testing.B) {
	benchTranStep(b, true)
}

func benchTranStep(b *testing.B, dense bool) {
	lo, hi := ClassEBounds()
	x := benchMid(lo, hi)
	s := NewClassESim()
	s.SetDense(dense)
	s.set(x)
	period := 1 / classEF0
	steps := 4 * stepsPerPer
	opts := circuit.TranOptions{
		TStop: 4 * period, TStep: period / stepsPerPer, UIC: true,
		Record: []string{"out"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.c.Tran(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// BenchmarkOpAmpEvalSparse measures one full op-amp evaluation (bias solve
// + 181-point AC sweep) on the compiled sparse kernel with the parallel
// sweep enabled.
func BenchmarkOpAmpEvalSparse(b *testing.B) {
	lo, hi := OpAmpBounds()
	x := benchMid(lo, hi)
	s := NewOpAmpSim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(x)
	}
}

// BenchmarkOpAmpEvalSparseSerial is the same evaluation with the inner AC
// parallelism off (one worker), isolating the kernel win from the
// parallel-sweep win.
func BenchmarkOpAmpEvalSparseSerial(b *testing.B) {
	lo, hi := OpAmpBounds()
	x := benchMid(lo, hi)
	s := NewOpAmpSim()
	s.ACWorkers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(x)
	}
}

// BenchmarkOpAmpEvalDense is the dense-reference baseline.
func BenchmarkOpAmpEvalDense(b *testing.B) {
	lo, hi := OpAmpBounds()
	x := benchMid(lo, hi)
	s := NewOpAmpSim()
	s.SetDense(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(x)
	}
}

// BenchmarkACSweepSparse measures the raw 181-point AC sweep on the
// op-amp netlist (parallel workers, workspace reuse), in ns/freq.
func BenchmarkACSweepSparse(b *testing.B) {
	benchACSweep(b, false)
}

// BenchmarkACSweepDense is the dense per-frequency baseline.
func BenchmarkACSweepDense(b *testing.B) {
	benchACSweep(b, true)
}

func benchACSweep(b *testing.B, dense bool) {
	lo, hi := OpAmpBounds()
	x := benchMid(lo, hi)
	s := NewOpAmpSim()
	s.SetDense(dense)
	// One priming eval sets all device values from x.
	s.Eval(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.c.AC(nil, opampFreqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(opampFreqs)), "ns/freq")
}
