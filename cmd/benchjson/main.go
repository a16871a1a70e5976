// Command benchjson runs the simulation-kernel hot-path benchmarks plus a
// serving-path load run (cmd/easyboload) and writes the results as
// machine-readable JSON (ns/op, B/op, allocs/op, extra metrics like
// ns/step and asks/sec, plus derived sparse-vs-dense and
// exact-vs-feature-space speedups, and tell_flatness: a tell at history
// 5000 over one at history 100, which must stay ≈ 1), so the repository's
// performance trajectory is tracked in data rather than prose. `make
// bench-json` invokes it to produce BENCH_8.json.
//
// The serving-path load runs twice: once against the in-memory store and
// once with -fsync always (rows suffixed "Durable"), so the group-commit
// pipeline's throughput is a gated row, not an anecdote.
//
// Usage:
//
//	benchjson -out BENCH_8.json -benchtime 20x -loadtime 10s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suite lists the benchmark groups to run: package path and name pattern.
var suite = []struct {
	pkg     string
	pattern string
}{
	{"easybo/internal/circuit", "BenchmarkNewtonIteration(Sparse|Dense)"},
	{"easybo/internal/testbench", "Benchmark(ClassEEval|TranStep|OpAmpEval|ACSweep)"},
	{"easybo/internal/linalg", "BenchmarkSolveLowerMulti"},
	{"easybo/internal/surrogate", "Benchmark(Surrogate(Fit|Extend|Predict|Suggest)|PredictBatch(Exact|Features))"},
	{"easybo/internal/serve/wal", "BenchmarkLogAppend"},
	{"easybo/internal/serve", "BenchmarkTellAtHistory"},
	{"easybo", "BenchmarkEndToEnd40EvalEasyBOA"},
}

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_N.json document.
type Report struct {
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	BenchTime  string             `json:"benchtime"`
	Benchmarks []Result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

var lineRe = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	var (
		out       = flag.String("out", "BENCH_8.json", "output JSON path")
		benchtime = flag.String("benchtime", "2s", "go test -benchtime value")
		count     = flag.Int("count", 3, "go test -count value; the per-benchmark minimum is reported")
		goBin     = flag.String("go", "go", "go tool to invoke")

		loadtime        = flag.Duration("loadtime", 10*time.Second, "serving-path load run length (0 skips the load legs)")
		loadSessions    = flag.Int("load-sessions", 8, "concurrent sessions in the in-memory load leg")
		durableSessions = flag.Int("durable-sessions", 64, "concurrent sessions in the fsync=always load leg (0 skips it)")
	)
	flag.Parse()

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		BenchTime: *benchtime,
		Speedups:  map[string]float64{},
	}
	for _, s := range suite {
		fmt.Fprintf(os.Stderr, "benchjson: running %s (%s)\n", s.pkg, s.pattern)
		cmd := exec.Command(*goBin, "test", "-run", "^$",
			"-bench", s.pattern, "-benchmem", "-benchtime", *benchtime,
			"-count", strconv.Itoa(*count), s.pkg)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.pkg, err))
		}
		// Noise robustness: -count repetitions, keep each benchmark's
		// fastest run (the standard minimum-time estimator).
		rep.Benchmarks = append(rep.Benchmarks, merge(parse(string(raw), s.pkg))...)
	}

	// Serving-path legs: easyboload runs against an in-process daemon. Its
	// stdout is already benchjson-shaped, so the rows merge verbatim and
	// benchcmp gates ServeAskThroughput/ServeTellThroughput (and friends)
	// like any kernel benchmark.
	runLoad := func(what string, args ...string) {
		fmt.Fprintf(os.Stderr, "benchjson: running serving-path load (%s)\n", what)
		cmd := exec.Command(*goBin, append([]string{"run", "easybo/cmd/easyboload"}, args...)...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fatal(fmt.Errorf("easyboload %s: %w", what, err))
		}
		var load struct {
			Benchmarks []Result `json:"benchmarks"`
		}
		if err := json.Unmarshal(raw, &load); err != nil {
			fatal(fmt.Errorf("parsing easyboload %s output: %w", what, err))
		}
		rep.Benchmarks = append(rep.Benchmarks, load.Benchmarks...)
	}
	if *loadtime > 0 {
		runLoad(fmt.Sprintf("in-memory, %s, %d sessions", *loadtime, *loadSessions),
			"-duration", loadtime.String(),
			"-sessions", strconv.Itoa(*loadSessions),
			"-out", "-", "-quiet")
		if *durableSessions > 0 {
			// The durable leg isolates the write-ahead path: distinct seeds
			// and no testbench (no cache traffic), a design large enough
			// that every ask stays in the cheap Latin-hypercube phase, two
			// workers per session so acks pipeline through the committer.
			// Rows come back suffixed Durable so the in-memory rows are not
			// overwritten in the merged report.
			runLoad(fmt.Sprintf("fsync=always, %s, %d sessions", *loadtime, *durableSessions),
				"-duration", loadtime.String(),
				"-sessions", strconv.Itoa(*durableSessions),
				"-workers", "2",
				"-seed-groups", strconv.Itoa(*durableSessions),
				"-testbench", "",
				"-init-points", "4096",
				"-fsync", "always",
				"-bench-suffix", "Durable",
				"-out", "-", "-quiet")
		}
	}

	// Derived sparse-vs-dense ratios for the headline workloads.
	byName := map[string]Result{}
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r
	}
	ratio := func(key, dense, sparse string) {
		d, okD := byName[dense]
		s, okS := byName[sparse]
		if okD && okS && s.NsPerOp > 0 {
			rep.Speedups[key] = round2(d.NsPerOp / s.NsPerOp)
		}
	}
	ratio("newton_iteration", "BenchmarkNewtonIterationDense", "BenchmarkNewtonIterationSparse")
	ratio("tran_step", "BenchmarkTranStepDense", "BenchmarkTranStepSparse")
	ratio("classe_eval", "BenchmarkClassEEvalDense", "BenchmarkClassEEvalSparse")
	ratio("opamp_eval", "BenchmarkOpAmpEvalDense", "BenchmarkOpAmpEvalSparse")
	ratio("ac_sweep", "BenchmarkACSweepDense", "BenchmarkACSweepSparse")
	// Exact-vs-feature-space surrogate scaling (key = exact ns / feature ns).
	for _, n := range []string{"100", "500", "2000"} {
		ratio("surrogate_fit_n"+n, "BenchmarkSurrogateFitExact/n="+n, "BenchmarkSurrogateFitFeatures/n="+n)
		ratio("surrogate_extend_n"+n, "BenchmarkSurrogateExtendExact/n="+n, "BenchmarkSurrogateExtendFeatures/n="+n)
		ratio("surrogate_predict_n"+n, "BenchmarkSurrogatePredictExact/n="+n, "BenchmarkSurrogatePredictFeatures/n="+n)
	}
	ratio("surrogate_suggest_n2000", "BenchmarkSurrogateSuggestExactN2000", "BenchmarkSurrogateSuggestFeaturesN2000")
	// Per-request cost against history length (key = ns at n=5000 / ns at
	// n=100): ≈ 1 while a tell is O(1) in the session's history.
	ratio("tell_flatness", "BenchmarkTellAtHistory/n=5000", "BenchmarkTellAtHistory/n=100")
	// Batched prediction, per point: width w against width 1
	// (key = w · ns at width 1 / ns at width w).
	for _, b := range []struct{ key, name string }{
		{"solve_lower_multi", "BenchmarkSolveLowerMulti/w"},
		{"predict_batch_exact", "BenchmarkPredictBatchExact/w="},
		{"predict_batch_features", "BenchmarkPredictBatchFeatures/w="},
	} {
		for _, w := range []int{2, 3, 4} {
			one, wide := byName[b.name+"1"], byName[b.name+strconv.Itoa(w)]
			if one.NsPerOp > 0 && wide.NsPerOp > 0 {
				rep.Speedups[fmt.Sprintf("%s_w%d", b.key, w)] = round2(float64(w) * one.NsPerOp / wide.NsPerOp)
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// parse extracts benchmark lines from `go test -bench` output.
func parse(out, pkg string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		m := lineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		r := Result{Name: m[1], Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				r.Metrics[unit] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		results = append(results, r)
	}
	return results
}

// merge collapses repeated runs of the same benchmark to the fastest one.
func merge(rs []Result) []Result {
	var out []Result
	idx := map[string]int{}
	for _, r := range rs {
		if i, ok := idx[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
