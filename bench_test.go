// Benchmarks regenerating (reduced-budget versions of) every table and
// figure in the paper's evaluation section, plus micro-benchmarks of the
// hot paths. The full-budget regeneration lives in cmd/repro; these benches
// keep every experiment wired into `go test -bench`.
package easybo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"easybo"
	"easybo/internal/acq"
	"easybo/internal/bo"
	"easybo/internal/core"
	"easybo/internal/gp"
	"easybo/internal/harness"
	"easybo/internal/objective"
	"easybo/internal/surrogate"
	"easybo/internal/testbench"
)

// trainExact fits the exact GP with a marginal-likelihood search of iters
// Adam steps on rng.
func trainExact(x [][]float64, y, lo, hi []float64, rng *rand.Rand, iters int) (*surrogate.Exact, error) {
	return surrogate.NewExact(x, y, lo, hi, func(xs [][]float64, ys []float64) (*gp.GP, error) {
		return gp.FitHyper(gp.SEARD{}, xs, ys, rng, &gp.FitOptions{Iters: iters})
	})
}

// benchSpec builds a reduced harness spec so a single benchmark iteration
// stays in the seconds range.
func benchSpec(prob *objective.Problem, evals int) harness.Spec {
	return harness.Spec{
		Name: "bench", Problem: prob,
		Runs: 1, MaxEvals: evals, InitPoints: 10,
		BaseSeed: 1, FitIters: 12, RefitEvery: 10, Parallel: 1,
	}
}

// BenchmarkTableI_SequentialBlock reproduces Table I's sequential rows
// (LCB, EI, EasyBO) on the op-amp at reduced budget.
func BenchmarkTableI_SequentialBlock(b *testing.B) {
	spec := benchSpec(testbench.OpAmp(), 40)
	spec.Entries = []harness.Entry{
		{Algo: bo.AlgoLCB, Batch: 1},
		{Algo: bo.AlgoEI, Batch: 1},
		{Algo: bo.AlgoEasyBOSeq, Batch: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_BatchBlock reproduces Table I's batch rows at B=5.
func BenchmarkTableI_BatchBlock(b *testing.B) {
	spec := benchSpec(testbench.OpAmp(), 40)
	spec.Entries = []harness.Entry{
		{Algo: bo.AlgoPBO, Batch: 5},
		{Algo: bo.AlgoPHCBO, Batch: 5},
		{Algo: bo.AlgoEasyBOS, Batch: 5},
		{Algo: bo.AlgoEasyBOA, Batch: 5},
		{Algo: bo.AlgoEasyBOSP, Batch: 5},
		{Algo: bo.AlgoEasyBO, Batch: 5},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_DE reproduces Table I's DE row at reduced budget.
func BenchmarkTableI_DE(b *testing.B) {
	prob := testbench.OpAmp()
	for i := 0; i < b.N; i++ {
		if _, err := bo.Run(prob, bo.Config{Algo: bo.AlgoDE, MaxEvals: 400, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_BatchBlock reproduces Table II's batch rows at B=10 on
// the class-E transient testbench.
func BenchmarkTableII_BatchBlock(b *testing.B) {
	spec := benchSpec(testbench.ClassE(), 30)
	spec.Entries = []harness.Entry{
		{Algo: bo.AlgoPBO, Batch: 10},
		{Algo: bo.AlgoEasyBOSP, Batch: 10},
		{Algo: bo.AlgoEasyBO, Batch: 10},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Sequential reproduces Table II's sequential EasyBO row.
func BenchmarkTableII_Sequential(b *testing.B) {
	prob := testbench.ClassE()
	for i := 0; i < b.N; i++ {
		_, err := bo.Run(prob, bo.Config{
			Algo: bo.AlgoEasyBOSeq, MaxEvals: 25, InitPoints: 10,
			Seed: int64(i), FitIters: 12,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1_Schedule regenerates the async/sync schedule comparison.
func BenchmarkFigure1_Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := harness.ScheduleDemo(); len(s) == 0 {
			b.Fatal("empty demo")
		}
	}
}

// BenchmarkFigure2_WeightSampling regenerates the κ-derived weight density.
func BenchmarkFigure2_WeightSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if s := harness.WeightDensityDemo(0); len(s) == 0 {
			b.Fatal("empty demo")
		}
		for k := 0; k < 1000; k++ {
			acq.SampleWeight(rng, 0)
		}
	}
}

// BenchmarkFigure4_Curves regenerates reduced op-amp best-vs-time curves
// (pBO / pHCBO / EasyBO at B=15).
func BenchmarkFigure4_Curves(b *testing.B) {
	spec := benchSpec(testbench.OpAmp(), 45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFigure(spec, 15, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_Curves regenerates reduced class-E best-vs-time curves.
func BenchmarkFigure6_Curves(b *testing.B) {
	spec := benchSpec(testbench.ClassE(), 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFigure(spec, 15, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------- micro-benches

// BenchmarkOpAmpEvaluation measures one op-amp FOM evaluation (bias solve +
// AC sweep through the MNA engine).
func BenchmarkOpAmpEvaluation(b *testing.B) {
	prob := testbench.OpAmp()
	x := midpoint(prob.Lo, prob.Hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Eval(x)
	}
}

// BenchmarkClassEEvaluation measures one class-E FOM evaluation (switching
// transient + Fourier measurements).
func BenchmarkClassEEvaluation(b *testing.B) {
	prob := testbench.ClassE()
	x := midpoint(prob.Lo, prob.Hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Eval(x)
	}
}

// BenchmarkGPFitPredict measures surrogate fitting plus a posterior sweep at
// the op-amp's full Table I training size (150 points, 10-D).
func BenchmarkGPFitPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d, n := 10, 150
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = 1
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.Float64()
		}
		x[i] = xi
		y[i] = xi[0]*xi[1] - xi[2]
	}
	q := make([]float64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := trainExact(x, y, lo, hi, rng, 10)
		if err != nil {
			b.Fatal(err)
		}
		p := m.Predictor()
		for k := 0; k < 100; k++ {
			for j := range q {
				q[j] = rng.Float64()
			}
			p.Predict(q)
		}
	}
}

// BenchmarkProposal measures one full EasyBO proposal (hallucinated view +
// acquisition maximization) at realistic training size.
func BenchmarkProposal(b *testing.B) {
	p := testbench.OpAmp()
	res, err := easybo.Optimize(easybo.Problem{
		Name: p.Name, Lo: p.Lo, Hi: p.Hi, Objective: p.Eval, Cost: p.Cost,
	}, easybo.Options{Workers: 5, MaxEvals: 60, Seed: 1, InitPoints: 20, FitIters: 12})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	loop, err := easybo.NewLoop(easybo.Problem{
		Name: p.Name, Lo: p.Lo, Hi: p.Hi, Objective: p.Eval, Cost: p.Cost,
	}, easybo.Options{Seed: 2, InitPoints: 20, FitIters: 12})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill with observations.
	for i := 0; i < 60; i++ {
		x, err := loop.Suggest()
		if err != nil {
			b.Fatal(err)
		}
		if err := loop.Observe(x, p.Eval(x)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := loop.Suggest()
		if err != nil {
			b.Fatal(err)
		}
		if err := loop.Observe(x, p.Eval(x)); err != nil {
			b.Fatal(err)
		}
	}
}

func midpoint(lo, hi []float64) []float64 {
	x := make([]float64, len(lo))
	for i := range x {
		x[i] = 0.5 * (lo[i] + hi[i])
	}
	return x
}

// ------------------------------------------------------------- ablations

// BenchmarkAblation_Lambda sweeps the EasyBO λ hyperparameter (the paper
// fixes λ = 6; DESIGN.md calls this choice out for ablation).
func BenchmarkAblation_Lambda(b *testing.B) {
	prob := testbench.OpAmp()
	for _, lambda := range []float64{2, 6, 20} {
		b.Run(fmt.Sprintf("lambda=%g", lambda), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := bo.Run(prob, bo.Config{
					Algo: bo.AlgoEasyBO, BatchSize: 10, MaxEvals: 40, InitPoints: 10,
					Lambda: lambda, Seed: int64(i), FitIters: 12, RefitEvery: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Penalization compares EasyBO-A (no penalty) with full
// EasyBO (hallucinated σ̂) at the same budget — the paper's §III-C ablation.
func BenchmarkAblation_Penalization(b *testing.B) {
	prob := testbench.OpAmp()
	for _, algo := range []bo.Algorithm{bo.AlgoEasyBOA, bo.AlgoEasyBO} {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := bo.Run(prob, bo.Config{
					Algo: algo, BatchSize: 10, MaxEvals: 40, InitPoints: 10,
					Seed: int64(i), FitIters: 12, RefitEvery: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Kernel compares the paper's SE-ARD kernel with
// Matérn-5/2 on the same runs.
func BenchmarkAblation_Kernel(b *testing.B) {
	prob := testbench.OpAmp()
	kernels := []struct {
		name string
		k    gp.Kernel
	}{{"SEARD", gp.SEARD{}}, {"Matern52", gp.Matern52{}}}
	for _, kc := range kernels {
		b.Run(kc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := bo.Run(prob, bo.Config{
					Algo: bo.AlgoEasyBO, BatchSize: 5, MaxEvals: 35, InitPoints: 10,
					Kernel: kc.k, Seed: int64(i), FitIters: 12, RefitEvery: 10,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstrainedOpt measures the constrained-EasyBO extension on the
// disk-constrained linear problem.
func BenchmarkConstrainedOpt(b *testing.B) {
	p := easybo.Problem{
		Name: "disk", Lo: []float64{-2, -2}, Hi: []float64{2, 2},
		Objective: func(x []float64) float64 { return x[0] + x[1] },
	}
	cons := []easybo.Constraint{
		func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 1 },
	}
	for i := 0; i < b.N; i++ {
		_, err := easybo.OptimizeConstrained(p, cons, easybo.Options{
			Workers: 4, MaxEvals: 40, InitPoints: 10, Seed: int64(i), FitIters: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThompsonSampling measures the RFF-based parallel TS driver.
func BenchmarkThompsonSampling(b *testing.B) {
	prob := testbench.OpAmp()
	for i := 0; i < b.N; i++ {
		_, err := bo.Run(prob, bo.Config{
			Algo: bo.AlgoTS, BatchSize: 5, MaxEvals: 35, InitPoints: 10,
			Seed: int64(i), FitIters: 12, RefitEvery: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircuitTransient measures the raw MNA transient engine on the
// class-E netlist (the substrate's hot loop).
func BenchmarkCircuitTransient(b *testing.B) {
	lo, hi := testbench.ClassEBounds()
	x := midpoint(lo, hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testbench.EvalClassE(x)
	}
}

// BenchmarkEndToEnd40EvalEasyBOA measures a complete 40-evaluation EasyBO-A
// run on the class-E problem: the end-to-end picture of the sparse
// simulation kernel plus the incremental surrogate engine under the
// asynchronous driver.
func BenchmarkEndToEnd40EvalEasyBOA(b *testing.B) {
	prob := testbench.ClassE()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := bo.Run(prob, bo.Config{
			Algo: bo.AlgoEasyBOA, BatchSize: 5, MaxEvals: 40, InitPoints: 10,
			Seed: int64(i), FitIters: 12, RefitEvery: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------- incremental surrogate engine

// surrogateData draws a random d-dimensional training set in the unit cube.
func surrogateData(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.Float64()
		}
		x[i] = xi
		y[i] = xi[0]*xi[1] - xi[2] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// BenchmarkGPRefit measures what absorbing one observation cost before the
// incremental engine: a from-scratch covariance build and factorization of
// all n+1 points (O(n²·d) kernel evaluations + O(n³) Cholesky).
func BenchmarkGPRefit(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := 10
			x, y := surrogateData(n+1, d, 1)
			theta := gp.SEARD{}.DefaultTheta(d)
			logNoise := -4.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gp.Fit(gp.SEARD{}, x, y, theta, logNoise); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPExtend measures the same one-observation update through the
// rank-append path: O(n·d) kernel evaluations + O(n²) factor extension.
func BenchmarkGPExtend(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := 10
			x, y := surrogateData(n+1, d, 1)
			theta := gp.SEARD{}.DefaultTheta(d)
			logNoise := -4.0
			base, err := gp.Fit(gp.SEARD{}, x[:n], y[:n], theta, logNoise)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := base.Extend(x[n:], y[n:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHallucinate measures the hallucination of paper Eq. 9, the
// attribution of what an ask pays for its busy set (the serving path has no
// traced span of its own): WithPseudo on the feature backend at serve-model's
// shape (d = 6, m = 256, 3 busy), on the exact GP at bo-opamp's (n = 100,
// 4 busy), and one penalized Propose — the view and the acquisition
// maximization over it — on the feature model.
func BenchmarkHallucinate(b *testing.B) {
	unit := func(d int) (lo, hi []float64) {
		lo, hi = make([]float64, d), make([]float64, d)
		for i := range hi {
			hi[i] = 1
		}
		return lo, hi
	}
	x6, y6 := surrogateData(120, 6, 2)
	lo6, hi6 := unit(6)
	fm, err := surrogate.FitFeatures(x6, y6, lo6, hi6, gp.SEARD{}.DefaultTheta(6), -3,
		rand.New(rand.NewSource(3)), surrogate.DefaultFeatures)
	if err != nil {
		b.Fatal(err)
	}
	busy3, _ := surrogateData(3, 6, 4)
	x10, y10 := surrogateData(100, 10, 5)
	lo10, hi10 := unit(10)
	em, err := trainExact(x10, y10, lo10, hi10, rand.New(rand.NewSource(6)), 10)
	if err != nil {
		b.Fatal(err)
	}
	busy4, _ := surrogateData(4, 10, 7)

	withPseudo := func(m surrogate.Surrogate, busy [][]float64) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.WithPseudo(busy); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("features/d=6/m=256/busy=3", withPseudo(fm, busy3))
	b.Run("exact/d=10/n=100/busy=4", withPseudo(em, busy4))
	b.Run("propose/features/busy=3", func(b *testing.B) {
		p := core.Proposer{Lambda: 6, Penalize: true}
		rng := rand.New(rand.NewSource(8))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Propose(fm, busy3, lo6, hi6, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuggestHotPath measures one full asynchronous suggestion —
// surrogate refresh, hallucination of 5 busy points, parallel acquisition
// maximization — on a loop holding 200 observations, the regime where the
// seed implementation's O(n³) refits dominated.
func BenchmarkSuggestHotPath(b *testing.B) {
	p := testbench.OpAmp()
	loop, err := easybo.NewLoop(easybo.Problem{
		Name: p.Name, Lo: p.Lo, Hi: p.Hi, Objective: p.Eval, Cost: p.Cost,
	}, easybo.Options{Seed: 5, InitPoints: 5, FitIters: 12, RefitEvery: 5})
	if err != nil {
		b.Fatal(err)
	}
	// Feed 200 observations directly (Observe accepts unsuggested points).
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		x := make([]float64, len(p.Lo))
		for j := range x {
			x[j] = p.Lo[j] + rng.Float64()*(p.Hi[j]-p.Lo[j])
		}
		if err := loop.Observe(x, p.Eval(x)); err != nil {
			b.Fatal(err)
		}
	}
	// Drain the entire initial design so every timed Suggest goes through
	// the surrogate, and leave those 5 suggestions outstanding so each one
	// hallucinates a 5-point busy set.
	for i := 0; i < 5; i++ {
		if _, err := loop.Suggest(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := loop.Suggest()
		if err != nil {
			b.Fatal(err)
		}
		// Observing keeps the busy set at 5 but grows n past 200 as
		// iterations accumulate; keep it off the clock.
		b.StopTimer()
		if err := loop.Observe(x, p.Eval(x)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
