package bo

import (
	"math"
	"testing"

	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// fastCfg keeps the surrogate machinery light for tests.
func fastCfg(algo Algorithm, b int, evals int, seed int64) Config {
	return Config{
		Algo: algo, BatchSize: b, InitPoints: 10, MaxEvals: evals, Seed: seed,
		FitIters: 15, RefitEvery: 10, AcqRefine: 1,
	}
}

func TestAllAlgorithmsRunAndRespectBudget(t *testing.T) {
	p := objective.Branin()
	algos := []struct {
		a Algorithm
		b int
	}{
		{AlgoRandom, 3}, {AlgoEI, 1}, {AlgoLCB, 1}, {AlgoEasyBOSeq, 1},
		{AlgoPBO, 4}, {AlgoPHCBO, 4}, {AlgoEasyBOS, 4}, {AlgoEasyBOSP, 4},
		{AlgoEasyBOA, 4}, {AlgoEasyBO, 4},
	}
	for _, tc := range algos {
		h, err := Run(p, fastCfg(tc.a, tc.b, 30, 7))
		if err != nil {
			t.Fatalf("%s: %v", tc.a, err)
		}
		if len(h.Records) != 30 {
			t.Fatalf("%s: %d records, want 30", tc.a, len(h.Records))
		}
		if math.IsInf(h.BestY, -1) || h.BestX == nil {
			t.Fatalf("%s: empty best", tc.a)
		}
		if h.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan", tc.a)
		}
		for _, r := range h.Records {
			for j := range r.X {
				if r.X[j] < p.Lo[j]-1e-9 || r.X[j] > p.Hi[j]+1e-9 {
					t.Fatalf("%s: out-of-box query %v", tc.a, r.X)
				}
			}
		}
	}
}

func TestDERunsAndIsSequential(t *testing.T) {
	p := objective.WithCost(objective.Sphere(3), func(x []float64) float64 { return 2 })
	h, err := Run(p, Config{Algo: AlgoDE, MaxEvals: 200, Seed: 1, DEPop: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 200 {
		t.Fatalf("records = %d", len(h.Records))
	}
	// Sequential: makespan = 200 evals × 2 s.
	if math.Abs(h.Makespan-400) > 1e-9 {
		t.Fatalf("makespan = %v, want 400", h.Makespan)
	}
	if h.BestY < -1.0 {
		t.Fatalf("DE on sphere should get close to 0, got %v", h.BestY)
	}
}

func TestBOBeatsRandomOnBranin(t *testing.T) {
	p := objective.Branin()
	var boBest, rndBest float64
	var boSum, rndSum float64
	const runs = 3
	for s := int64(0); s < runs; s++ {
		hb, err := Run(p, fastCfg(AlgoEasyBOSeq, 1, 40, s))
		if err != nil {
			t.Fatal(err)
		}
		hr, err := Run(p, fastCfg(AlgoRandom, 1, 40, s))
		if err != nil {
			t.Fatal(err)
		}
		boSum += hb.BestY
		rndSum += hr.BestY
		boBest, rndBest = hb.BestY, hr.BestY
	}
	_ = boBest
	_ = rndBest
	if boSum/runs < rndSum/runs-0.5 {
		t.Fatalf("BO (%v) should not lose clearly to random (%v)", boSum/runs, rndSum/runs)
	}
	// BO should land near the Branin optimum (0) on average.
	if boSum/runs < -2.0 {
		t.Fatalf("EasyBO-seq mean best %v too far from optimum", boSum/runs)
	}
}

func TestDeterminismGivenSeed(t *testing.T) {
	p := objective.Hartmann6()
	for _, algo := range []Algorithm{AlgoEasyBO, AlgoPBO, AlgoEasyBOSP} {
		h1, err := Run(p, fastCfg(algo, 3, 25, 99))
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Run(p, fastCfg(algo, 3, 25, 99))
		if err != nil {
			t.Fatal(err)
		}
		if h1.BestY != h2.BestY || h1.Makespan != h2.Makespan {
			t.Fatalf("%s: non-deterministic: %v/%v vs %v/%v",
				algo, h1.BestY, h1.Makespan, h2.BestY, h2.Makespan)
		}
		for i := range h1.Records {
			if h1.Records[i].Y != h2.Records[i].Y {
				t.Fatalf("%s: record %d differs", algo, i)
			}
		}
	}
}

// heteroCost makes evaluation time depend strongly on position, creating
// the async advantage the paper exploits.
func heteroCost(x []float64) float64 {
	return 10 + 8*math.Sin(3*x[0])*math.Sin(3*x[0])
}

func TestAsyncFasterThanSyncAtEqualBudget(t *testing.T) {
	p := objective.WithCost(objective.Branin(), heteroCost)
	const b, evals = 5, 40
	var syncT, asyncT float64
	for s := int64(0); s < 3; s++ {
		hs, err := Run(p, fastCfg(AlgoEasyBOSP, b, evals, s))
		if err != nil {
			t.Fatal(err)
		}
		ha, err := Run(p, fastCfg(AlgoEasyBO, b, evals, s))
		if err != nil {
			t.Fatal(err)
		}
		syncT += hs.Makespan
		asyncT += ha.Makespan
	}
	if asyncT >= syncT {
		t.Fatalf("async makespan %v should beat sync %v", asyncT, syncT)
	}
}

func TestBatchFasterThanSequentialAtEqualBudget(t *testing.T) {
	p := objective.WithCost(objective.Branin(), func([]float64) float64 { return 5 })
	h1, err := Run(p, fastCfg(AlgoEasyBOSeq, 1, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	h5, err := Run(p, fastCfg(AlgoEasyBO, 5, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Constant cost: async B=5 must be ≈5× faster.
	ratio := h1.Makespan / h5.Makespan
	if ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("speed-up = %v, want ≈5", ratio)
	}
}

func TestHistoryCurves(t *testing.T) {
	recs := []sched.Result{
		{ID: 0, Y: 1, End: 10},
		{ID: 1, Y: 3, End: 5},
		{ID: 2, Y: 2, End: 20},
	}
	h := newHistory(AlgoRandom, 1, recs, nil)
	if h.BestY != 3 || h.Makespan != 20 {
		t.Fatalf("history %+v", h)
	}
	curve := h.CurveVsTime([]float64{0, 5, 10, 20, 30})
	if !math.IsInf(curve[0], -1) {
		t.Fatal("curve before first completion must be -Inf")
	}
	wantCurve := []float64{3, 3, 3, 3}
	for i, w := range wantCurve {
		if curve[i+1] != w {
			t.Fatalf("curve = %v", curve)
		}
	}
}

func TestAlgorithmLabels(t *testing.T) {
	if AlgoEasyBO.Label(15) != "EasyBO-15" {
		t.Fatal(AlgoEasyBO.Label(15))
	}
	if AlgoEI.Label(5) != "EI" {
		t.Fatal(AlgoEI.Label(5))
	}
	if AlgoEasyBOSeq.Label(1) != "EasyBO" {
		t.Fatal(AlgoEasyBOSeq.Label(1))
	}
	if !AlgoPBO.IsBatch() || AlgoEI.IsBatch() {
		t.Fatal("IsBatch wrong")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{Algo: AlgoEI}); err == nil {
		t.Fatal("nil problem must fail")
	}
	bad := &objective.Problem{Name: "bad", Lo: []float64{1}, Hi: []float64{0},
		Eval: func(x []float64) float64 { return 0 }}
	if _, err := Run(bad, Config{Algo: AlgoEI}); err == nil {
		t.Fatal("empty box must fail")
	}
	if _, err := Run(objective.Branin(), Config{Algo: "nope"}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestInitBudgetClamp(t *testing.T) {
	// MaxEvals smaller than the default init size: init is clamped and the
	// run still produces exactly MaxEvals records.
	p := objective.Branin()
	h, err := Run(p, Config{Algo: AlgoRandom, MaxEvals: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 7 {
		t.Fatalf("records = %d", len(h.Records))
	}
}

func TestEasyBOPenalizationDiversifiesBatch(t *testing.T) {
	// On a smooth objective, EasyBO-SP batches must be more spread out than
	// EasyBO-S batches on average (paper §III-C's purpose). We check that
	// the minimum pairwise distance within proposal batches is larger with
	// penalization.
	p := objective.Branin()
	spread := func(algo Algorithm) float64 {
		h, err := Run(p, fastCfg(algo, 5, 35, 5))
		if err != nil {
			t.Fatal(err)
		}
		// Proposal phase records (after the 10 init points): group by batch
		// of 5 in completion order.
		recs := h.Records[10:]
		var minD float64 = math.Inf(1)
		for i := 0; i+5 <= len(recs); i += 5 {
			for a := i; a < i+5; a++ {
				for b := a + 1; b < i+5; b++ {
					var d float64
					for j := range recs[a].X {
						diff := (recs[a].X[j] - recs[b].X[j]) / (p.Hi[j] - p.Lo[j])
						d += diff * diff
					}
					if d = math.Sqrt(d); d < minD {
						minD = d
					}
				}
			}
		}
		return minD
	}
	if sp, s := spread(AlgoEasyBOSP), spread(AlgoEasyBOS); sp < s*0.5 {
		t.Fatalf("penalized batches should not be much tighter: SP=%v S=%v", sp, s)
	}
}

func TestThompsonSamplingDriver(t *testing.T) {
	p := objective.Branin()
	// Sequential TS.
	h1, err := Run(p, fastCfg(AlgoTS, 1, 30, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(h1.Records) != 30 {
		t.Fatalf("TS records = %d", len(h1.Records))
	}
	// Parallel TS: independent draws per slot.
	h4, err := Run(p, fastCfg(AlgoTS, 4, 30, 21))
	if err != nil {
		t.Fatal(err)
	}
	if len(h4.Records) != 30 {
		t.Fatalf("parallel TS records = %d", len(h4.Records))
	}
	// TS on a smooth 2-D problem with 30 evals should beat -20 comfortably.
	if h1.BestY < -20 || h4.BestY < -20 {
		t.Fatalf("TS best too poor: %v / %v", h1.BestY, h4.BestY)
	}
	// Batches must not collapse to one point: check within-batch diversity.
	recs := h4.Records[10:]
	dup := 0
	for i := 0; i+4 <= len(recs); i += 4 {
		for a := i; a < i+4; a++ {
			for b := a + 1; b < i+4; b++ {
				if recs[a].X[0] == recs[b].X[0] && recs[a].X[1] == recs[b].X[1] {
					dup++
				}
			}
		}
	}
	if dup > len(recs)/4 {
		t.Fatalf("parallel TS collapsed: %d duplicate pairs", dup)
	}
}

func TestPortfolioDriver(t *testing.T) {
	p := objective.Branin()
	h, err := Run(p, fastCfg(AlgoPortfolio, 1, 35, 13))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 35 {
		t.Fatalf("records = %d", len(h.Records))
	}
	if h.BestY < -20 {
		t.Fatalf("GP-Hedge best too poor: %v", h.BestY)
	}
	// Portfolio is forced sequential even if a batch size is requested.
	h2, err := Run(p, fastCfg(AlgoPortfolio, 8, 25, 13))
	if err != nil {
		t.Fatal(err)
	}
	if h2.BatchSize != 1 {
		t.Fatalf("portfolio must run sequentially, got B=%d", h2.BatchSize)
	}
}

func TestNaNObjectiveFailsFast(t *testing.T) {
	// An objective that returns NaN must produce a clear error, not a panic
	// or a silently corrupted surrogate.
	p := &objective.Problem{
		Name: "nan", Lo: []float64{0}, Hi: []float64{1},
		Eval: func(x []float64) float64 {
			if x[0] > 0.5 {
				return math.NaN()
			}
			return x[0]
		},
	}
	_, err := Run(p, fastCfg(AlgoEasyBO, 3, 30, 1))
	if err == nil {
		t.Fatal("NaN objective must surface an error")
	}
}

func TestRunAsyncSkipsFailedEvaluations(t *testing.T) {
	// A problem whose objective diverges (NaN) on part of the box: with
	// FailSkip the run completes, failures are recorded separately, and the
	// surrogate/modelManager only ever see successful observations even
	// though the observation count diverges from the launch count.
	p := objective.Branin()
	base := p.Eval
	p = &objective.Problem{Name: "flaky-branin", Lo: p.Lo, Hi: p.Hi,
		Cost: func(x []float64) float64 { return 1 + x[1]/10 },
		Eval: func(x []float64) float64 {
			if x[0] < -3 { // a slice of the box always fails
				return math.NaN()
			}
			return base(x)
		},
	}
	cfg := fastCfg(AlgoEasyBO, 4, 30, 13)
	cfg.Failure = core.FailSkip
	h, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records)+len(h.Failed) != 30 {
		t.Fatalf("records %d + failed %d != 30", len(h.Records), len(h.Failed))
	}
	if len(h.Failed) == 0 {
		t.Fatal("expected some failed evaluations on this seed")
	}
	for _, r := range h.Records {
		if math.IsNaN(r.Y) || r.Err != nil {
			t.Fatalf("failed evaluation leaked into Records: %+v", r)
		}
	}
	for _, r := range h.Failed {
		if r.Err == nil {
			t.Fatalf("healthy evaluation in Failed: %+v", r)
		}
	}
	util := sched.Utilization(append(append([]sched.Result(nil), h.Records...), h.Failed...), h.BatchSize)
	if len(util) != 4 {
		t.Fatalf("utilization workers = %d", len(util))
	}
	var totalBusy float64
	for _, u := range util {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("utilization out of range: %v", util)
		}
		totalBusy += u
	}
	if totalBusy <= 0 {
		t.Fatal("no busy time accounted")
	}
}

func TestRunSyncHonorsFailurePolicy(t *testing.T) {
	// The synchronous drivers share the failure contract: non-finite
	// evaluations abort by default, and under FailSkip they consume budget
	// without reaching the surrogate or Records.
	flaky := func(bad float64) *objective.Problem {
		p := objective.Branin()
		base := p.Eval
		return &objective.Problem{Name: "flaky", Lo: p.Lo, Hi: p.Hi,
			Eval: func(x []float64) float64 {
				if x[0] < -3 {
					return bad
				}
				return base(x)
			},
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for _, algo := range []Algorithm{AlgoPBO, AlgoRandom, AlgoDE} {
			cfg := fastCfg(algo, 4, 30, 13)
			if _, err := Run(flaky(bad), cfg); err == nil {
				t.Fatalf("%s: an evaluation returning %v must abort by default", algo, bad)
			}
			cfg.Failure = core.FailSkip
			h, err := Run(flaky(bad), cfg)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if len(h.Records)+len(h.Failed) != 30 {
				t.Fatalf("%s: records %d + failed %d != 30", algo, len(h.Records), len(h.Failed))
			}
			if len(h.Failed) == 0 {
				t.Fatalf("%s: expected failures on this seed", algo)
			}
			for _, r := range h.Records {
				if math.IsNaN(r.Y) || math.IsInf(r.Y, 0) || r.Err != nil {
					t.Fatalf("%s: failure leaked into Records: %+v", algo, r)
				}
			}
		}
	}
}

// TestDriversRunOnEveryBackend runs representative drivers on the explicit
// feature-space backend and on auto with a mid-run escalation; every driver
// must complete its budget regardless of the surrogate behind the seam.
func TestDriversRunOnEveryBackend(t *testing.T) {
	p := objective.Branin()
	algos := []struct {
		a Algorithm
		b int
	}{
		{AlgoEI, 1}, {AlgoEasyBOSeq, 1}, {AlgoPBO, 3}, {AlgoTS, 3},
		{AlgoPortfolio, 1}, {AlgoEasyBOA, 3}, {AlgoEasyBO, 3},
	}
	backends := []struct {
		name string
		mod  func(*Config)
	}{
		{"features", func(c *Config) { c.Surrogate = surrogate.BackendFeatures; c.Features = 64 }},
		{"auto-escalating", func(c *Config) { c.Surrogate = surrogate.BackendAuto; c.EscalateAt = 18; c.Features = 64 }},
	}
	for _, be := range backends {
		for _, tc := range algos {
			cfg := fastCfg(tc.a, tc.b, 28, 11)
			be.mod(&cfg)
			h, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.a, be.name, err)
			}
			if len(h.Records) != 28 {
				t.Fatalf("%s on %s: %d records, want 28", tc.a, be.name, len(h.Records))
			}
			if math.IsInf(h.BestY, -1) || h.BestX == nil {
				t.Fatalf("%s on %s: empty best", tc.a, be.name)
			}
			for _, r := range h.Records {
				for j := range r.X {
					if r.X[j] < p.Lo[j]-1e-9 || r.X[j] > p.Hi[j]+1e-9 {
						t.Fatalf("%s on %s: out-of-box query %v", tc.a, be.name, r.X)
					}
				}
			}
		}
	}
}

// TestEveryWorkerIsUsedWhenDesignIsSmallerThanPool is the paper's premise —
// issue the next query whenever there is an idle worker — for a design
// smaller than the pool: the one-launch-per-completion loop this package
// used to have left workers 3–5 idle for the whole run.
func TestEveryWorkerIsUsedWhenDesignIsSmallerThanPool(t *testing.T) {
	for _, algo := range []Algorithm{AlgoEasyBO, AlgoEasyBOA, AlgoRandom} {
		cfg := fastCfg(algo, 6, 30, 3)
		cfg.InitPoints = 3
		h, err := Run(objective.Branin(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(h.Records) != 30 {
			t.Fatalf("%s: %d records, want 30", algo, len(h.Records))
		}
		util := sched.Utilization(h.Records, h.BatchSize)
		for w, u := range util {
			if u <= 0 {
				t.Fatalf("%s: worker %d never ran an evaluation: %v", algo, w, util)
			}
		}
		if h.Makespan > 6 {
			t.Fatalf("%s: makespan %g virtual s, want 6 (3 design, then 6 per second)", algo, h.Makespan)
		}
	}
}
