package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"easybo"
	"easybo/circuits"
	"easybo/internal/core"
	"easybo/internal/stats"
	"easybo/internal/surrogate"
)

// cpuNow is the process's user+system CPU time so far. The kernel keeps the
// sum to the nanosecond (only its split into user and system is sampled), so
// the difference of two readings a millisecond apart is meaningful.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// stopwatch laps wall and process CPU time together, and after every lap
// runs the calibration spin, outside the timed intervals: every timed
// operation is stored with both times, and every block with a reading of
// how fast the box was while it ran.
type stopwatch struct {
	b    *block
	wall time.Time
	cpu  time.Duration
}

func (b *block) stopwatch() *stopwatch {
	return &stopwatch{b: b, wall: time.Now(), cpu: cpuNow()}
}

// lap books the time since the previous lap to the wall series and to its
// CPU twin cpuPrefix+series.
func (s *stopwatch) lap(series string) {
	cpu, wall := cpuNow(), time.Now()
	s.b.add(series, wall.Sub(s.wall).Seconds())
	s.b.add(cpuPrefix+series, (cpu - s.cpu).Seconds())
	s.b.add(spinSeries, spin().Seconds())
	s.wall, s.cpu = time.Now(), cpuNow()
}

var spinSink float64

// spin is the calibration: a fixed piece of register-only work, about 25
// microseconds when the box is at its best. It touches no memory the
// program uses, and on this box its fastest time is the same to four digits
// from run to run while its mean follows the box's slow spells.
func spin() time.Duration {
	t := time.Now()
	x := 0.0
	for i := 0; i < 22000; i++ {
		x += float64(i%7) * 1.0000001
	}
	spinSink += x
	return time.Since(t)
}

const cpuPrefix = "cpu:"

// allocated records the per-round-trip allocation of the timed phase.
func (b *block) allocated(before, after uint64, trips int) {
	b.scalars["alloc_kb"] = float64(after-before) / 1024 / float64(trips)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as in cpuNow
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// deClasseBlock is the paper's DE baseline on the class-E testbench: pure
// simulator throughput. A round trip is one candidate, timed from the end
// of the previous simulation to the end of this one, so DE's own
// bookkeeping and the virtual executor are inside it.
func deClasseBlock(seed int64, sz sizes, _ string, rec *recorder) (*block, error) {
	b := newBlock()
	p := circuits.ClassE()
	runtime.GC()
	sw := b.stopwatch()
	obj := p.NewObjective()
	var before, after uint64
	var evalSum time.Duration
	k := 0
	rec.setRT(0, 0)
	endRT := rec.begin(0, "easybo.roundtrip")
	p.NewObjective = nil
	p.Objective = func(x []float64) float64 {
		endEval := rec.begin(0, "testbench.classe_eval")
		t := time.Now()
		y := obj(x)
		evalSum += time.Since(t)
		endEval()
		endRT()
		if y > -5 { // testbench.ClassEFOM scores a failed transient -5
			b.counts["classe_valid"]++
		}
		if k < sz.deSetup {
			sw.lap("setup")
		} else {
			sw.lap("rt")
		}
		k++
		switch k {
		case sz.deSetup:
			before = allocNow()
			sw = b.stopwatch() // reading the allocator stops the world
		case sz.deSims:
			after = allocNow()
		}
		if k < sz.deSims {
			rec.setRT(0, k)
			endRT = rec.begin(0, "easybo.roundtrip")
		}
		return y
	}
	res, err := easybo.Optimize(p, easybo.Options{Algorithm: easybo.DE, Workers: 1, MaxEvals: sz.deSims, Seed: seed})
	if err != nil {
		return nil, err
	}
	if k != sz.deSims {
		return nil, fmt.Errorf("de-classe: %d simulations, want %d", k, sz.deSims)
	}
	b.attempted = sz.deSims - sz.deSetup
	b.allocated(before, after, b.attempted)
	b.counts["classe_evals"] = float64(k)
	// Optimize's own share is what the laps hold beyond the simulations.
	b.scalars["eval_share"] = evalSum.Seconds() / (sum(b.series["setup"]) + sum(b.series["rt"]))

	d := newDigester()
	for _, e := range res.Evaluations {
		if !inBox(e.X, p.Lo, p.Hi) {
			return nil, fmt.Errorf("de-classe: candidate %v outside the box", e.X)
		}
		d.told(e.X, e.Y)
	}
	b.digest, b.bestY = d.sum(), res.BestY

	// Restart: a worker that lost its simulator compiles a fresh one and runs
	// its first simulation. The timed point is the middle of the box, the
	// same work whatever the seed; the incumbent is then re-simulated on the
	// fresh simulator and must reproduce the recorded FOM bit for bit.
	mid := make([]float64, len(p.Lo))
	for i := range mid {
		mid[i] = (p.Lo[i] + p.Hi[i]) / 2
	}
	for r := 0; r < sz.deRestarts; r++ {
		t := time.Now()
		fresh := circuits.ClassE().NewObjective()
		fresh(mid)
		b.add("recover", time.Since(t).Seconds())
		if y := fresh(res.BestX); math.Float64bits(y) != math.Float64bits(res.BestY) {
			return nil, fmt.Errorf("de-classe: a fresh simulator gives %v at the incumbent, the run recorded %v", y, res.BestY)
		}
	}
	return b, nil
}

// askTeller is what a library round trip needs of the optimizer; the public
// easybo.Loop (untraced) and tracedLoop both provide it.
type askTeller interface {
	Suggest() ([]float64, error)
	Observe(x []float64, y float64) error
	Best() ([]float64, float64)
}

// loopSpec describes one library ask/tell session.
type loopSpec struct {
	problem             easybo.Problem
	opts                easybo.Options
	design, trips, busy int
	evalSpan            string
}

// loopBlock drives one ask/tell session in the closed-loop order every
// workload shares: tell the design, fill the busy slots, then repeat "tell
// the oldest outstanding point, ask for one more". The order is fixed and
// single-threaded, so the history is the same in every block while
// hallucination still sees a non-empty busy set. It returns the told history
// beside the block.
func loopBlock(spec loopSpec, rec *recorder) (*block, [][]float64, []float64, error) {
	b := newBlock()
	p := spec.problem
	runtime.GC()

	sw := b.stopwatch()
	obj := p.Objective
	if p.NewObjective != nil {
		obj = p.NewObjective()
	}
	var loop askTeller
	var tl *tracedLoop
	var err error
	if rec == nil {
		loop, err = easybo.NewLoop(p, spec.opts)
	} else {
		tl, err = newTracedLoop(p, spec.opts, rec)
		loop = tl
	}
	if err != nil {
		return nil, nil, nil, err
	}
	sw.lap("setup")

	d := newDigester()
	var histX [][]float64
	var histY []float64
	var evalSum time.Duration
	tell := func(x []float64) error {
		endEval := rec.begin(0, spec.evalSpan)
		te := time.Now()
		y := obj(x)
		evalSum += time.Since(te)
		endEval()
		d.told(x, y)
		histX, histY = append(histX, x), append(histY, y)
		endObs := rec.begin(0, "easybo.observe")
		err := loop.Observe(x, y)
		endObs()
		return err
	}
	ask := func() ([]float64, error) {
		endAsk := rec.begin(0, "easybo.suggest")
		x, err := loop.Suggest()
		endAsk()
		if err == nil && !inBox(x, p.Lo, p.Hi) {
			err = fmt.Errorf("%s: proposal %v outside the box", p.Name, x)
		}
		return x, err
	}

	rec.setRT(0, -1)
	for i := 0; i < spec.design; i++ {
		x, err := ask()
		if err != nil {
			return nil, nil, nil, err
		}
		if err := tell(x); err != nil {
			return nil, nil, nil, err
		}
		sw.lap("setup")
	}
	var pending [][]float64
	for len(pending) < spec.busy {
		x, err := ask()
		if err != nil {
			return nil, nil, nil, err
		}
		pending = append(pending, x)
		sw.lap("setup")
	}

	if tl != nil {
		tl.resetCounters()
	}
	evalSum = 0
	before := allocNow()
	sw = b.stopwatch() // reading the allocator stops the world
	for k := 0; k < spec.trips; k++ {
		rec.setRT(0, k)
		endRT := rec.begin(0, "easybo.roundtrip")
		b.attempted++
		x := pending[0]
		pending = pending[1:]
		if err := tell(x); err != nil {
			return nil, nil, nil, err
		}
		nx, err := ask()
		if err != nil {
			return nil, nil, nil, err
		}
		pending = append(pending, nx)
		endRT()
		sw.lap("rt")
	}
	b.allocated(before, allocNow(), spec.trips)
	b.scalars["eval_share"] = evalSum.Seconds() / sum(b.series["rt"])
	if tl != nil {
		tl.report(b, spec.trips)
	}

	_, b.bestY = loop.Best()
	b.digest = d.sum()
	return b, histX, histY, nil
}

// boOpampBlock is one easybo.Loop session on the paper's op-amp testbench.
// The simulation is ~0.2 ms, so the round trip is the surrogate fit or
// extension, the hallucination of the busy set and the acquisition
// maximization: the paper's own algorithm is the hot path.
func boOpampBlock(seed int64, sz sizes, _ string, rec *recorder) (*block, error) {
	spec := loopSpec{
		problem: circuits.OpAmp(),
		opts:    easybo.Options{Seed: seed, InitPoints: sz.boDesign},
		design:  sz.boDesign, trips: sz.boTrips, busy: sz.boBusy,
		evalSpan: "testbench.opamp_eval",
	}
	b, histX, histY, err := loopBlock(spec, rec)
	if err != nil {
		return nil, err
	}
	// Restart: a fresh Loop is handed the whole history, skips its own
	// design, and must produce its first model-based point — one
	// from-scratch hyperparameter fit at full history length.
	for r := 0; r < sz.boRestarts; r++ {
		t := time.Now()
		loop, err := easybo.NewLoop(spec.problem, spec.opts)
		if err != nil {
			return nil, err
		}
		for i := range histX {
			if err := loop.Observe(histX[i], histY[i]); err != nil {
				return nil, err
			}
		}
		for i := 0; i < spec.design; i++ {
			x, err := loop.Suggest()
			if err != nil {
				return nil, err
			}
			loop.Forget(x)
		}
		x, err := loop.Suggest()
		if err != nil {
			return nil, err
		}
		b.add("recover", time.Since(t).Seconds())
		if !inBox(x, spec.problem.Lo, spec.problem.Hi) {
			return nil, fmt.Errorf("bo-opamp: restarted proposal %v outside the box", x)
		}
		if _, best := loop.Best(); math.Float64bits(best) != math.Float64bits(b.bestY) {
			return nil, fmt.Errorf("bo-opamp: restarted incumbent %v, the run had %v", best, b.bestY)
		}
	}
	return b, nil
}

// tracedLoop composes core.NewAskTell exactly as easybo.NewLoop does, with
// timing decorators at the two seams the core leaves open: the Fit func and
// the Surrogate it returns. The history digest of a traced block must equal
// the untraced one, which proves the decorators observe the same program.
type tracedLoop struct {
	at  *core.AskTell
	mm  *core.ModelManager
	rec *recorder

	lastHyper  []float64
	endPropose func() // closes the open core.propose span
	pendingSum int
	suggests   int

	// MaximizeParallel predicts from several goroutines.
	predictCalls atomic.Int64
	predictNanos atomic.Int64
}

func newTracedLoop(p easybo.Problem, opts easybo.Options, rec *recorder) (*tracedLoop, error) {
	// easybo.NewLoop's defaults; the workloads set none of these options.
	const lambda, refitEvery, fitIters = 6, 5, 40
	if opts.InitPoints <= 0 {
		opts.InitPoints = 20
	}
	backend, err := surrogate.ParseBackend(string(opts.Surrogate))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	d := len(p.Lo)
	var init [][]float64
	for _, u := range stats.LatinHypercube(rng, opts.InitPoints, d) {
		x := make([]float64, d)
		for j := range x {
			x[j] = p.Lo[j] + u[j]*(p.Hi[j]-p.Lo[j])
		}
		init = append(init, x)
	}
	mm, err := core.NewModelManager(p.Lo, p.Hi, rng, core.ModelManagerOptions{
		RefitEvery: refitEvery, FitIters: fitIters, Backend: backend, EscalateAt: opts.EscalateAt,
	})
	if err != nil {
		return nil, err
	}
	tl := &tracedLoop{mm: mm, rec: rec}
	tl.at, err = core.NewAskTell(core.AskTellConfig{
		Init: init,
		Lo:   p.Lo, Hi: p.Hi,
		Fit:            tl.fit,
		Proposer:       &core.Proposer{Lambda: lambda, Penalize: true},
		Rng:            rng,
		Failure:        core.FailSkip,
		MinFitObs:      2,
		RandomFallback: true,
	})
	if err != nil {
		return nil, err
	}
	return tl, nil
}

func (tl *tracedLoop) Suggest() ([]float64, error) {
	tl.pendingSum += tl.at.Pending()
	tl.suggests++
	p, ok, err := tl.at.Suggest()
	if tl.endPropose != nil {
		tl.endPropose()
		tl.endPropose = nil
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("benchmark: no suggestion available")
	}
	return p.X, nil
}

func (tl *tracedLoop) Observe(x []float64, y float64) error { return tl.at.Observe(x, y, nil) }
func (tl *tracedLoop) Best() ([]float64, float64)           { return tl.at.Best() }

// fit times ModelManager.Fit and names the span by what the manager did: a
// fit that changed the hyperparameters re-optimized them (refit), one that
// kept them extended the factorization by the new observations.
func (tl *tracedLoop) fit(x [][]float64, y []float64) (surrogate.Surrogate, error) {
	start := time.Now()
	m, err := tl.mm.Fit(x, y)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	theta, noise, _ := tl.mm.Hyper()
	hyper := append(append([]float64(nil), theta...), noise)
	kind := "surrogate.extend"
	if !equalBits(hyper, tl.lastHyper) {
		kind = "surrogate.refit"
	}
	tl.lastHyper = hyper
	tl.rec.add(0, kind, start, end)
	// AskTell.Suggest spends the rest of the call in Proposer.Propose.
	tl.endPropose = tl.rec.begin(0, "core.propose")
	return &tracedSurrogate{Surrogate: m, tl: tl}, nil
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (tl *tracedLoop) resetCounters() {
	tl.pendingSum, tl.suggests = 0, 0
	tl.predictCalls.Store(0)
	tl.predictNanos.Store(0)
}

func (tl *tracedLoop) report(b *block, asks int) {
	calls := float64(tl.predictCalls.Load())
	b.counts["predict_calls"] = calls
	b.counts["asks"] = float64(asks)
	if calls > 0 {
		b.scalars["predict_us"] = float64(tl.predictNanos.Load()) / 1e3 / calls
	}
	if tl.suggests > 0 {
		b.scalars["pending_mean"] = float64(tl.pendingSum) / float64(tl.suggests)
	}
}

// tracedSurrogate forwards to the fitted surrogate, timing hallucination and
// counting predictions.
type tracedSurrogate struct {
	surrogate.Surrogate
	tl *tracedLoop
}

func (s *tracedSurrogate) WithPseudo(xp [][]float64) (surrogate.Surrogate, error) {
	end := s.tl.rec.begin(0, "surrogate.with_pseudo")
	m, err := s.Surrogate.WithPseudo(xp)
	end()
	if err != nil {
		return nil, err
	}
	return &tracedSurrogate{Surrogate: m, tl: s.tl}, nil
}

func (s *tracedSurrogate) StandardizedPredictor() surrogate.Predictor {
	return &tracedPredictor{Predictor: s.Surrogate.StandardizedPredictor(), tl: s.tl}
}

// tracedPredictor records no spans: an ask predicts thousands of times.
type tracedPredictor struct {
	surrogate.Predictor
	tl *tracedLoop
}

func (p *tracedPredictor) Predict(x []float64) (float64, float64) {
	t := time.Now()
	mu, sigma := p.Predictor.Predict(x)
	p.tl.predictNanos.Add(time.Since(t).Nanoseconds())
	p.tl.predictCalls.Add(1)
	return mu, sigma
}
