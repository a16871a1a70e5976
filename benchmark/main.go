// Command benchmark is the repository's benchmark: four closed-loop
// workloads from the simulator kernel to the write-ahead log, measured as
// identical repeated blocks of fixed work. Every block also times a fixed
// spin, which says how fast the box was; the per-operation median over
// blocks of the times divided by that (the quiet time) is what every wall
// and CPU metric derives from. See README.md beside this file.
//
//	bash benchmark/run.sh --workload bo-opamp --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"easybo"
	"easybo/circuits"
)

// sizes fixes the work of one block of each workload. A faster commit must
// not be rewarded with more work per block — per-ask cost depends on history
// length — so only the number of blocks follows the time budget.
type sizes struct {
	deSims, deSetup int // de-classe: simulations per block, of which set-up

	boDesign, boTrips, boBusy int // bo-opamp: design told in set-up, timed round trips, B

	walTrips                           int // serve-wal: timed round trips
	modelDesign, modelTrips, modelBusy int // serve-model: as bo-opamp

	// Restart repetitions per block: several where a restart costs a few
	// milliseconds, one elsewhere.
	deRestarts, boRestarts, walRestarts, modelRestarts int

	// Blocks a run measures at least: untraced ones with --trace 0, and of
	// each kind (untraced, traced) with --trace 1.
	minBlocks, minTraced int
}

var fullSizes = sizes{
	deSims: 200, deSetup: 20,
	boDesign: 20, boTrips: 130, boBusy: 5,
	walTrips:    300,
	modelDesign: 20, modelTrips: 100, modelBusy: 4,
	deRestarts: 3, boRestarts: 1, walRestarts: 1, modelRestarts: 1,
	minBlocks: 3, minTraced: 2,
}

// smokeSizes exercises every path of every workload in a second or two.
var smokeSizes = sizes{
	deSims: 40, deSetup: 20,
	boDesign: 20, boTrips: 12, boBusy: 3,
	walTrips:    30,
	modelDesign: 20, modelTrips: 6, modelBusy: 2,
	deRestarts: 1, boRestarts: 1, walRestarts: 1, modelRestarts: 1,
	minBlocks: 2, minTraced: 2,
}

type workload struct {
	name  string
	block func(seed int64, sz sizes, tmp string, rec *recorder) (*block, error)
}

var workloads = []workload{
	{"de-classe", deClasseBlock},
	{"bo-opamp", boOpampBlock},
	{"serve-wal", func(seed int64, sz sizes, tmp string, rec *recorder) (*block, error) {
		return serveBlock(serveWalSpec(sz), seed, tmp, rec)
	}},
	{"serve-model", func(seed int64, sz sizes, tmp string, rec *recorder) (*block, error) {
		return serveBlock(serveModelSpec(sz), seed, tmp, rec)
	}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric and its unit; BENCHMARK.json
// lists the same (a test holds the two together).
var endToEndUnits = map[string]string{
	"setup_s":                "s",
	"roundtrips_per_s":       "1/s",
	"roundtrip_p50_ms":       "ms",
	"roundtrip_p90_ms":       "ms",
	"cpu_ms_per_roundtrip":   "ms",
	"alloc_kb_per_roundtrip": "KB",
	"recover_s":              "s",
	"peak_rss_mb":            "MB",
}

// slowdownPrefix starts the line that states the box's slowdown; the
// self-check reads the median back.
const slowdownPrefix = "# slowdown of the box over the untraced blocks: median "

const outDir = "out" // under benchmark/: traces and WAL directories, git-ignored

func main() {
	var (
		name      = flag.String("workload", "", "de-classe | bo-opamp | serve-wal | serve-model")
		seed      = flag.Int64("seed", 1, "offsets every session seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 30, "time budget of the run; blocks are started while one more fits")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics from untraced blocks; 1: per-layer metrics from traced blocks")
		smoke     = flag.Bool("smoke", false, "tiny blocks, for tests")
		selfcheck = flag.Int("selfcheck", 0, "run every workload on this many seeds, twice, and compare the two sets against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace == 1, *smoke, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, traced, smoke bool, selfcheck int) error {
	if selfcheck > 0 {
		return runSelfcheck(selfcheck, seconds)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	res, err := run(w, seed, time.Duration(seconds*float64(time.Second)), traced, sz)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run measures one workload. An error means the benchmark could not run; a
// run whose outputs are wrong returns a result with Correct false.
func run(w workload, seed int64, budget time.Duration, traced bool, sz sizes) (*result, error) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v sizes=%+v\n", w.name, seed, budget.Seconds(), traced, sz)
	fmt.Printf("# %s GOMAXPROCS=%d nproc=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	var plain, withTrace samples
	var problems []string
	if traced {
		// The probes and the trace file take their share of the budget.
		problems = fill(w, seed, sz, budget*3/4, &plain, &withTrace)
	} else {
		problems = fill(w, seed, sz, budget, &plain, nil)
	}
	res := &result{Correct: len(problems) == 0}
	for _, s := range []*samples{&plain, &withTrace} {
		for _, b := range s.blocks {
			res.Attempted += b.attempted
			res.Failed += b.failed
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: nothing ran: %v", w.name, problems)
	}
	for _, p := range problems {
		fmt.Println("# WRONG:", p)
	}
	if res.Correct {
		var err error
		if traced {
			res.Metrics, err = perLayer(w.name, seed, sz, &plain, &withTrace)
		} else {
			res.Metrics, err = endToEnd(&plain)
		}
		if err != nil {
			return nil, err
		}
	}
	slow := plain.slowdown()
	fmt.Printf("# %d untraced + %d traced blocks, digest %016x, best_y %v\n",
		len(plain.blocks), len(withTrace.blocks), plain.blocks[0].digest, plain.blocks[0].bestY)
	fmt.Printf(slowdownPrefix+"%.3f, least %.3f, most %.3f\n", median(slow), minOf(slow), maxOf(slow))
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// fill runs identical blocks until one more would not fit the budget, and at
// least the sizes' minimum, alternating untraced and traced when traced is
// given. It returns what the output checks found wrong.
func fill(w workload, seed int64, sz sizes, budget time.Duration, plain, traced *samples) (problems []string) {
	start := time.Now()
	kinds, atLeast := 1, sz.minBlocks
	if traced != nil {
		kinds, atLeast = 2, 2*sz.minTraced
	}
	for n := 0; ; n++ {
		into, rec := plain, (*recorder)(nil)
		if traced != nil && n%2 == 1 {
			into, rec = traced, newRecorder()
		}
		b, err := w.block(seed, sz, outDir, rec)
		if b != nil {
			if rec != nil {
				b.spans = rec.finish()
				for name, v := range durations(b.spans) {
					b.series[name] = v
				}
			}
			into.blocks = append(into.blocks, b)
		}
		if err != nil {
			return append(problems, err.Error())
		}
		first := plain.blocks[0]
		if b.digest != first.digest || math.Float64bits(b.bestY) != math.Float64bits(first.bestY) {
			problems = append(problems, fmt.Sprintf("block %d walked history %016x to best %v, block 0 walked %016x to %v",
				n, b.digest, b.bestY, first.digest, first.bestY))
		}
		if b.failed > 0 {
			problems = append(problems, fmt.Sprintf("block %d: %d round trips failed", n, b.failed))
		}
		done := n + 1
		perBlock := time.Since(start) / time.Duration(done)
		if done >= atLeast && done%kinds == 0 && time.Since(start)+time.Duration(kinds)*perBlock > budget {
			return problems
		}
	}
}

// endToEnd derives every end-to-end metric from quiet times only.
func endToEnd(s *samples) (map[string]metric, error) {
	setup, err := s.quiet("setup")
	if err != nil {
		return nil, err
	}
	trips, rate, err := s.quietTrips()
	if err != nil {
		return nil, err
	}
	recov, err := s.quiet("recover")
	if err != nil {
		return nil, err
	}
	cpu, err := s.quiet(cpuPrefix + "rt")
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"setup_s":                sum(setup),
		"roundtrips_per_s":       rate,
		"roundtrip_p50_ms":       1e3 * percentile(trips, 50),
		"roundtrip_p90_ms":       1e3 * percentile(trips, 90),
		"cpu_ms_per_roundtrip":   1e3 * sum(cpu) / float64(len(cpu)),
		"alloc_kb_per_roundtrip": s.minScalar("alloc_kb"),
		"recover_s":              median(recov),
		"peak_rss_mb":            peakRSSMB(),
	}
	out := map[string]metric{}
	for name, unit := range endToEndUnits {
		if !(v[name] > 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v[name])
		}
		out[name] = metric{v[name], unit}
	}
	return out, nil
}

// perLayer derives the per-layer metrics from the traced blocks and the
// probes, writes the last traced block's spans, and states what tracing
// cost against the untraced blocks of the same run.
func perLayer(name string, seed int64, sz sizes, plain, traced *samples) (map[string]metric, error) {
	v := map[string]float64{}
	if err := runProbes(v); err != nil {
		return nil, err
	}
	layerValues(v, traced)
	if name == "serve-model" {
		if err := featuresProbe(v, seed, sz); err != nil {
			return nil, err
		}
	}
	ratio, err := throughputRatio(traced, plain)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_ratio"] = ratio

	last := traced.blocks[len(traced.blocks)-1]
	path, err := writeTrace(outDir, name, last.spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to benchmark/%s\n", len(last.spans), path)

	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	for k := range v {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("layer metric %s is computed but not declared", k)
		}
	}
	return out, nil
}

// throughputRatio is what tracing costs: traced over untraced quiet
// throughput.
func throughputRatio(traced, plain *samples) (float64, error) {
	_, t, err := traced.quietTrips()
	if err != nil {
		return 0, err
	}
	_, p, err := plain.quietTrips()
	if err != nil {
		return 0, err
	}
	return t / p, nil
}

// featuresProbe is serve-model's session as a library loop on the same
// backend, dimension and history length, with the surrogate decorators the
// daemon's sessions cannot take.
func featuresProbe(v map[string]float64, seed int64, sz sizes) error {
	spec := loopSpec{
		problem: circuits.Hartmann6(),
		opts:    easybo.Options{Seed: seed, InitPoints: sz.modelDesign, Surrogate: easybo.SurrogateFeatures},
		design:  sz.modelDesign, trips: sz.modelTrips, busy: sz.modelBusy,
		evalSpan: "objective.hartmann6_eval",
	}
	rec := newRecorder()
	b, _, _, err := loopBlock(spec, rec)
	if err != nil {
		return err
	}
	d := durations(rec.finish())
	// The feature backend re-optimizes hyperparameters every 64 observations,
	// so most of its refits are the first one, which falls in set-up.
	refits := append(d["surrogate.refit"+setupSuffix], d["surrogate.refit"]...)
	v["surrogate.features_fit_ms_p50"] = 1e3 * percentile(refits, 50)
	v["surrogate.features_extend_ms_p50"] = 1e3 * percentile(d["surrogate.extend"], 50)
	v["surrogate.features_predict_us"] = b.scalars["predict_us"]
	return nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
