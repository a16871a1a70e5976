// Command benchcmp is the CI bench-regression gate: it compares a fresh
// benchjson report against the committed baseline (BENCH_8.json) and fails
// when a gated hot-path benchmark slowed down beyond the tolerance.
//
// Benchmarks matching -gate (by default the newton-iteration kernel, the
// testbench evaluation paths, the WAL append, the tell handler, and the
// easyboload serving-path rows — both the in-memory and the fsync=always
// Durable legs) FAIL the run when head/baseline exceeds -max-ratio; every
// other benchmark only warns, because generic benchmarks on shared CI
// runners are too noisy to block merges on.
//
// One check needs no baseline: the head report's tell_flatness (a tell at
// history 5000 over one at history 100, measured side by side in one run)
// must stay under maxTellFlatness.
//
// Usage:
//
//	go run ./cmd/benchjson -out /tmp/head.json -benchtime 0.3s -count 2
//	go run ./cmd/benchcmp -baseline BENCH_8.json -head /tmp/head.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// report mirrors the subset of the benchjson document the gate needs.
type report struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
	Speedups map[string]float64 `json:"speedups"`
}

// maxTellFlatness bounds the head report's tell_flatness. A flat tell reads
// 1.1–1.35 here, not 1.0: the benchmark holds the history at n by restoring
// the session every 128 tells, and the n=5000 leg's restores churn megabytes
// of heap beside its timed tells. A tell that copies or encodes the history
// (the code before TellAck) reads 22.
const maxTellFlatness = 2.0

// flatnessVerdict checks the head report's tell_flatness: a report without
// the ratio fails, because the rows it derives from are gated.
func flatnessVerdict(head report) (msg string, failed bool) {
	f, ok := head.Speedups["tell_flatness"]
	switch {
	case !ok:
		return "tell_flatness missing from head report", true
	case f > maxTellFlatness:
		return fmt.Sprintf("tell_flatness %.2f: a tell at history 5000 costs more than %.1fx one at history 100", f, maxTellFlatness), true
	}
	return fmt.Sprintf("tell_flatness %.2f (bound %.1f)", f, maxTellFlatness), false
}

// row is one benchmark comparison.
type row struct {
	Name     string
	Base     float64 // baseline ns/op
	Head     float64 // head ns/op; <0 when missing from the head report
	Ratio    float64 // head / base
	Gated    bool
	Verdict  string // "ok", "warn", "FAIL"
	Comments string
}

// compare evaluates head against baseline. Gated benchmarks fail on a ratio
// above maxRatio (and on going missing — a silently dropped hot-path
// benchmark must not pass the gate); the rest only warn.
func compare(baseline, head report, gate *regexp.Regexp, maxRatio float64) (rows []row, failed bool) {
	headNs := make(map[string]float64, len(head.Benchmarks))
	for _, b := range head.Benchmarks {
		headNs[b.Name] = b.NsPerOp
	}
	for _, b := range baseline.Benchmarks {
		r := row{Name: b.Name, Base: b.NsPerOp, Head: -1, Gated: gate.MatchString(b.Name), Verdict: "ok"}
		if ns, ok := headNs[b.Name]; ok {
			r.Head = ns
			if b.NsPerOp > 0 {
				r.Ratio = ns / b.NsPerOp
			}
			switch {
			case r.Ratio > maxRatio && r.Gated:
				r.Verdict = "FAIL"
				r.Comments = fmt.Sprintf("%.2fx slower than baseline (tolerance %.2fx)", r.Ratio, maxRatio)
				failed = true
			case r.Ratio > maxRatio:
				r.Verdict = "warn"
				r.Comments = fmt.Sprintf("%.2fx slower, not gated (noisy-runner tolerance)", r.Ratio)
			}
		} else if r.Gated {
			r.Verdict = "FAIL"
			r.Comments = "gated benchmark missing from head report"
			failed = true
		} else {
			r.Verdict = "warn"
			r.Comments = "missing from head report"
		}
		rows = append(rows, r)
	}
	return rows, failed
}

func load(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}

func main() {
	var (
		basePath = flag.String("baseline", "BENCH_8.json", "committed baseline report")
		headPath = flag.String("head", "", "freshly measured report to gate")
		maxRatio = flag.Float64("max-ratio", 2.0, "fail gated benchmarks slower than baseline by this factor")
		// Only the sparse hot paths plus the serving-path load rows are
		// gated; the Dense/reference benchmarks exist for golden comparison
		// and are too noisy on short CI runs to block merges on. The Serve*
		// alternatives match the Durable-suffixed rows too (substring match),
		// so the fsync=always leg is gated alongside the in-memory one.
		gateExpr = flag.String("gate", "(NewtonIteration|OpAmpEval|ClassEEval)Sparse|Surrogate(Extend|Predict)Features|LogAppend|TellAtHistory|Serve(AskThroughput|AskLatencyP99|TellThroughput|TellLatencyP99)", "regexp of benchmark names that hard-fail the gate")
	)
	flag.Parse()
	if *headPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -head is required")
		os.Exit(2)
	}
	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: bad -gate:", err)
		os.Exit(2)
	}
	baseline, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	head, err := load(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	rows, failed := compare(baseline, head, gate, *maxRatio)
	fmt.Printf("%-38s %14s %14s %8s %6s  %s\n", "benchmark", "base ns/op", "head ns/op", "ratio", "gate", "verdict")
	for _, r := range rows {
		headStr := "missing"
		ratioStr := "-"
		if r.Head >= 0 {
			headStr = fmt.Sprintf("%.1f", r.Head)
			ratioStr = fmt.Sprintf("%.2fx", r.Ratio)
		}
		g := ""
		if r.Gated {
			g = "gate"
		}
		line := fmt.Sprintf("%-38s %14.1f %14s %8s %6s  %s", r.Name, r.Base, headStr, ratioStr, g, r.Verdict)
		if r.Comments != "" {
			line += " — " + r.Comments
		}
		fmt.Println(line)
	}
	msg, notFlat := flatnessVerdict(head)
	fmt.Println(msg)
	if failed {
		fmt.Fprintf(os.Stderr, "benchcmp: FAIL — gated hot-path benchmark regressed beyond %.2fx\n", *maxRatio)
	}
	if notFlat {
		fmt.Fprintln(os.Stderr, "benchcmp: FAIL — per-tell cost grows with session history")
	}
	if failed || notFlat {
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}
