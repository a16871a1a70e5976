// Command easybo optimizes a named benchmark problem with any of the
// library's algorithms and prints the result.
//
// Usage:
//
//	easybo -problem opamp -algo easybo -workers 10 -evals 150 -seed 1
//	easybo -problem classe -algo pbo -workers 5 -evals 450
//	easybo -problem branin -algo ei -evals 60 -trace
//
// With -parallel the run executes on real goroutines (wall-clock time)
// through the fault-tolerant executor; -faults injects simulator crashes and
// NaN results to exercise it:
//
//	easybo -problem branin -parallel -workers 8 -evals 80 -faults 0.2 -onfail retry -retries 2
//
// With -serve the run is driven against a remote easybod daemon: the
// daemon owns the surrogate and the suggestion sequence, and this process
// attaches as a pool of ask/tell workers evaluating the built-in
// testbenches (a stand-in for a farm of simulator hosts):
//
//	easybod &
//	easybo -serve http://localhost:7823 -problem opamp -workers 8 -evals 80
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"easybo"
	"easybo/circuits"
	"easybo/internal/profiling"
)

// stopProfiles flushes any active profiles; fatalExit routes every error
// exit through it so -cpuprofile output is never left truncated.
var stopProfiles = func() {}

func fatalExit(code int, args ...any) {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, args...)
	}
	stopProfiles()
	os.Exit(code)
}

func main() {
	var (
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	var (
		problem = flag.String("problem", "branin", "problem: opamp | classe | branin | hartmann6 | ackley | rosenbrock")
		algo    = flag.String("algo", "easybo", "algorithm: easybo | easybo-a | easybo-sp | easybo-s | pbo | phcbo | ei | lcb | de | random")
		workers = flag.Int("workers", 5, "parallel workers (batch size B)")
		evals   = flag.Int("evals", 150, "total evaluations including the initial design")
		initN   = flag.Int("init", 20, "initial design size")
		seed    = flag.Int64("seed", 1, "random seed")
		trace   = flag.Bool("trace", false, "print every evaluation")
		dim     = flag.Int("dim", 6, "dimension for ackley/rosenbrock")

		surrogateB = flag.String("surrogate", "auto", "surrogate backend: auto | exact | features")
		escalateAt = flag.Int("escalate", 0, "auto backend: observation count that escalates exact -> features (0 = default 500)")

		parallel    = flag.Bool("parallel", false, "evaluate on real goroutines (wall-clock) instead of virtual time")
		serveURL    = flag.String("serve", "", "drive a remote easybod daemon at this base URL (comma-separate several cluster nodes for failover); this process becomes the worker pool")
		maxRetries  = flag.Int("max-retries", 4, "retries per transient -serve HTTP failure (connection refused, 5xx, 412 mid-handoff), exponential backoff with jitter")
		retryBudget = flag.Duration("retry-budget", 2*time.Minute, "total wall-clock cap across the retries of one -serve call (0 = unbounded)")
		onfail      = flag.String("onfail", "abort", "failed-evaluation policy: abort | skip | retry")
		retries     = flag.Int("retries", 0, "extra attempts per failed evaluation before the policy applies")
		timeout     = flag.Duration("timeout", 0, "per-evaluation timeout for -parallel (0 = none)")
		maxfail     = flag.Int("maxfail", 0, "abort after this many failures (0 = policy default)")
		faults      = flag.Float64("faults", 0, "inject faults: fraction of evaluations that crash or return NaN (demo)")
	)
	flag.Parse()
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalExit(1, "easybo:", err)
	}
	stopProfiles = stop
	defer stopProfiles()

	var p easybo.Problem
	switch strings.ToLower(*problem) {
	case "opamp":
		p = circuits.OpAmp()
	case "classe":
		p = circuits.ClassE()
	case "branin":
		p = circuits.Branin()
	case "hartmann6":
		p = circuits.Hartmann6()
	case "ackley":
		p = circuits.Ackley(*dim)
	case "rosenbrock":
		p = circuits.Rosenbrock(*dim)
	default:
		fatalExit(2, fmt.Sprintf("unknown problem %q", *problem))
	}
	if *faults > 0 {
		// The virtual engine's only failure mode is NaN; panics are a real
		// goroutine-pool concern, so they are injected only when evaluations
		// run on real goroutines (-parallel or the -serve worker pool).
		p.Objective = injectFaults(p.Objective, *faults, *parallel || *serveURL != "")
	}

	var policy easybo.FailurePolicy
	switch strings.ToLower(*onfail) {
	case "abort":
		policy = easybo.AbortOnFailure
	case "skip":
		policy = easybo.SkipFailures
	case "retry":
		policy = easybo.RetryFailures
	default:
		fatalExit(2, fmt.Sprintf("unknown failure policy %q", *onfail))
	}

	opts := easybo.Options{
		Algorithm:  easybo.Algorithm(*algo),
		Workers:    *workers,
		MaxEvals:   *evals,
		InitPoints: *initN,
		Seed:       *seed,
		Surrogate:  easybo.SurrogateBackend(*surrogateB),
		EscalateAt: *escalateAt,
		Async: easybo.AsyncOptions{
			Policy:      policy,
			Retries:     *retries,
			EvalTimeout: *timeout,
			MaxFailures: *maxfail,
		},
	}
	var res *easybo.Result
	switch {
	case *serveURL != "":
		if *timeout > 0 {
			// The remote worker loop cannot abandon a running objective;
			// refuse rather than silently ignoring the flag.
			fatalExit(2, "easybo: -timeout is not supported with -serve")
		}
		res, err = runRemote(*serveURL, p, opts, strings.ToLower(*onfail), *maxRetries, *retryBudget)
	case *parallel:
		res, err = easybo.OptimizeParallel(p, opts)
	default:
		res, err = easybo.Optimize(p, opts)
	}
	if err != nil {
		fatalExit(1, "easybo:", err)
	}

	if *trace {
		fmt.Println("  #    worker   start(s)     end(s)          y")
		for i, e := range res.Evaluations {
			fmt.Printf("%4d %8d %10.1f %10.1f %12.4f\n", i, e.Worker, e.Start, e.End, e.Y)
		}
	}
	unit := "virtual"
	if *parallel || *serveURL != "" {
		unit = "wall-clock"
	}
	fmt.Printf("problem:   %s (%d variables)\n", p.Name, len(p.Lo))
	fmt.Printf("algorithm: %s, B=%d, %d evaluations (%d failed)\n",
		*algo, *workers, len(res.Evaluations), len(res.Failed))
	fmt.Printf("best FOM:  %.4f\n", res.BestY)
	fmt.Printf("sim time:  %.3g %s seconds\n", res.Seconds, unit)
	fmt.Printf("best x:    %v\n", res.BestX)
	if len(res.Failed) > 0 {
		fmt.Printf("failures:  %d handled with policy %q\n", len(res.Failed), *onfail)
	}
	fmt.Print(formatUtilization(res.WorkerUtilization()))

	switch strings.ToLower(*problem) {
	case "opamp":
		gain, ugf, pm, valid := circuits.OpAmpPerformance(res.BestX)
		fmt.Printf("           GAIN %.1f dB | UGF %.1f MHz | PM %.1f° | valid=%v\n", gain, ugf, pm, valid)
	case "classe":
		pout, pae, valid := circuits.ClassEPerformance(res.BestX)
		fmt.Printf("           Pout %.3f W | PAE %.1f%% | valid=%v\n", pout, 100*pae, valid)
	}
}

// injectFaults wraps an objective so a deterministic, coordinate-keyed
// fraction of design points fail their first attempt — half by panicking (a
// crashed simulator, only when panics can be recovered, i.e. the goroutine
// pool) and half by returning NaN (a diverged one). Faults are transient:
// a retry or resubmission of the same point succeeds, mimicking flaky
// simulator infrastructure. Deterministic so virtual-time runs stay
// reproducible.
func injectFaults(obj func([]float64) float64, frac float64, panics bool) func([]float64) float64 {
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	return func(x []float64) float64 {
		h := fnv.New64a()
		for _, v := range x {
			b := math.Float64bits(v)
			var buf [8]byte
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
		key := h.Sum64()
		u := float64(key%1_000_000) / 1_000_000
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		mu.Unlock()
		switch {
		case !first || u >= frac:
			return obj(x)
		case u < frac/2 && panics:
			panic("injected simulator crash")
		default:
			return math.NaN()
		}
	}
}

// formatUtilization renders a per-worker busy-fraction bar chart.
func formatUtilization(util []float64) string {
	var b strings.Builder
	b.WriteString("worker utilization:\n")
	for w, u := range util {
		bars := int(u*30 + 0.5)
		fmt.Fprintf(&b, "  w%-3d %5.1f%% %s\n", w, 100*u, strings.Repeat("█", bars))
	}
	return b.String()
}
