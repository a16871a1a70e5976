package main

import (
	"regexp"
	"testing"
)

func mkReport(ns map[string]float64) report {
	var rep report
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		}{Name: name, NsPerOp: v})
	}
	return rep
}

var gate = regexp.MustCompile(`(NewtonIteration|OpAmpEval|ClassEEval)Sparse`)

func TestCompareGatesHotPathRegression(t *testing.T) {
	baseline := mkReport(map[string]float64{
		"BenchmarkNewtonIterationSparse": 250,
		"BenchmarkOpAmpEvalSparse":       100000,
		"BenchmarkACSweepSparse":         100000,
	})
	// Newton 2.4x slower: a gated hard failure.
	head := mkReport(map[string]float64{
		"BenchmarkNewtonIterationSparse": 600,
		"BenchmarkOpAmpEvalSparse":       110000,
		"BenchmarkACSweepSparse":         120000,
	})
	rows, failed := compare(baseline, head, gate, 2.0)
	if !failed {
		t.Fatal("2.4x newton-iteration regression must fail the gate")
	}
	for _, r := range rows {
		switch r.Name {
		case "BenchmarkNewtonIterationSparse":
			if r.Verdict != "FAIL" {
				t.Fatalf("newton verdict %q", r.Verdict)
			}
		default:
			if r.Verdict != "ok" {
				t.Fatalf("%s verdict %q", r.Name, r.Verdict)
			}
		}
	}
}

func TestCompareWarnsOnUngatedSlowdown(t *testing.T) {
	baseline := mkReport(map[string]float64{
		"BenchmarkNewtonIterationSparse": 250,
		"BenchmarkACSweepSparse":         100000,
	})
	// AC sweep 3x slower, but it is not gated: warn, don't fail.
	head := mkReport(map[string]float64{
		"BenchmarkNewtonIterationSparse": 260,
		"BenchmarkACSweepSparse":         300000,
	})
	rows, failed := compare(baseline, head, gate, 2.0)
	if failed {
		t.Fatal("ungated slowdown must not fail the gate")
	}
	for _, r := range rows {
		if r.Name == "BenchmarkACSweepSparse" && r.Verdict != "warn" {
			t.Fatalf("ac-sweep verdict %q, want warn", r.Verdict)
		}
	}
}

func TestCompareFailsOnMissingGatedBenchmark(t *testing.T) {
	baseline := mkReport(map[string]float64{"BenchmarkClassEEvalSparse": 9e6})
	head := mkReport(map[string]float64{"BenchmarkSomethingElse": 1})
	if _, failed := compare(baseline, head, gate, 2.0); !failed {
		t.Fatal("a gated benchmark vanishing from the head report must fail")
	}
}

func TestCompareAcceptsSpeedups(t *testing.T) {
	baseline := mkReport(map[string]float64{"BenchmarkNewtonIterationSparse": 250})
	head := mkReport(map[string]float64{"BenchmarkNewtonIterationSparse": 90})
	rows, failed := compare(baseline, head, gate, 2.0)
	if failed || rows[0].Verdict != "ok" {
		t.Fatalf("speedup flagged: %+v", rows[0])
	}
}

// serveGate is the default -gate expression including the serving-path
// rows cmd/easyboload emits.
var serveGate = regexp.MustCompile(`(NewtonIteration|OpAmpEval|ClassEEval)Sparse|Surrogate(Extend|Predict)Features|Serve(AskThroughput|AskLatencyP99)`)

func TestCompareGatesServingPathRegression(t *testing.T) {
	baseline := mkReport(map[string]float64{
		"ServeAskThroughput":  2e6, // 500 asks/sec
		"ServeAskLatencyP99":  50e6,
		"ServeTellLatencyP99": 20e6,
	})
	// Throughput halved twice over (ns/op up 3x) fails; the tell row is
	// deliberately ungated (it shadows ask latency) and only warns.
	head := mkReport(map[string]float64{
		"ServeAskThroughput":  6e6,
		"ServeAskLatencyP99":  55e6,
		"ServeTellLatencyP99": 90e6,
	})
	rows, failed := compare(baseline, head, serveGate, 2.0)
	if !failed {
		t.Fatal("3x serving-throughput regression must fail the gate")
	}
	for _, r := range rows {
		switch r.Name {
		case "ServeAskThroughput":
			if r.Verdict != "FAIL" {
				t.Fatalf("throughput verdict %q, want FAIL", r.Verdict)
			}
		case "ServeAskLatencyP99":
			if r.Verdict != "ok" {
				t.Fatalf("ask-p99 verdict %q, want ok", r.Verdict)
			}
		case "ServeTellLatencyP99":
			if r.Verdict != "warn" {
				t.Fatalf("tell-p99 verdict %q, want warn (ungated)", r.Verdict)
			}
		}
	}
}

func TestCompareFailsOnMissingServeRow(t *testing.T) {
	baseline := mkReport(map[string]float64{"ServeAskLatencyP99": 50e6})
	head := mkReport(map[string]float64{"BenchmarkSomethingElse": 1})
	if _, failed := compare(baseline, head, serveGate, 2.0); !failed {
		t.Fatal("a vanished serving-path row must fail the gate")
	}
}

func TestFlatnessVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		speedups map[string]float64
		failed   bool
	}{
		{"flat", map[string]float64{"tell_flatness": 1.04}, false},
		{"noisy but flat", map[string]float64{"tell_flatness": 1.35}, false},
		{"grows with history", map[string]float64{"tell_flatness": 6.2}, true},
		{"missing", map[string]float64{"tran_step": 5}, true},
	} {
		if msg, failed := flatnessVerdict(report{Speedups: tc.speedups}); failed != tc.failed {
			t.Errorf("%s: failed=%v (%s), want %v", tc.name, failed, msg, tc.failed)
		}
	}
}
