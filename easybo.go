package easybo

import (
	"context"
	"fmt"
	"time"

	"easybo/internal/bo"
	"easybo/internal/core"
	"easybo/internal/objective"
	"easybo/internal/sched"
	"easybo/internal/surrogate"
)

// Problem is a box-constrained maximization problem.
type Problem struct {
	// Name labels the problem in reports.
	Name string
	// Lo and Hi are the per-dimension box bounds (len = dimension).
	Lo, Hi []float64
	// Objective returns the figure of merit to MAXIMIZE at x. It must be
	// safe for concurrent use when OptimizeParallel runs it on several
	// workers.
	Objective func(x []float64) float64
	// NewObjective optionally returns a fresh objective instance owning
	// private simulator state (compiled circuits, solver workspaces).
	// OptimizeParallel gives each worker its own instance so evaluations
	// reuse their simulator without synchronization; the returned function
	// need not be safe for concurrent use. Nil means workers share
	// Objective.
	NewObjective func() func(x []float64) float64
	// Cost optionally returns the simulated evaluation duration in seconds;
	// it drives the virtual-time executor used by Optimize. When nil every
	// evaluation costs one virtual second.
	Cost func(x []float64) float64
}

// Algorithm selects the optimization strategy.
type Algorithm string

// Available algorithms. EasyBO is the paper's method; the others are the
// baselines evaluated against it and remain useful in their own right.
const (
	EasyBO       Algorithm = "easybo"    // asynchronous batch + penalization (default)
	EasyBOA      Algorithm = "easybo-a"  // asynchronous batch, no penalization
	EasyBOSync   Algorithm = "easybo-sp" // synchronous batch + penalization
	EasyBOS      Algorithm = "easybo-s"  // synchronous batch, no penalization
	PBO          Algorithm = "pbo"       // synchronous fixed weight ladder
	PHCBO        Algorithm = "phcbo"     // pBO + high-coverage penalty
	EI           Algorithm = "ei"        // sequential expected improvement
	LCB          Algorithm = "lcb"       // sequential confidence bound
	DE           Algorithm = "de"        // differential evolution
	RandomSearch Algorithm = "random"    // uniform random sampling
	TS           Algorithm = "ts"        // (parallel) Thompson sampling via RFF posterior draws
	GPHedge      Algorithm = "hedge"     // portfolio of EI/PI/UCB with hedge weights
)

// SurrogateBackend selects the surrogate model implementation behind an
// optimization run.
type SurrogateBackend string

const (
	// SurrogateAuto (the default) runs the exact Gaussian process until the
	// observation count reaches Options.EscalateAt, then escalates to the
	// feature-space backend so long runs keep a flat per-suggestion cost.
	// Below the threshold it behaves identically to SurrogateExact.
	SurrogateAuto SurrogateBackend = "auto"
	// SurrogateExact is the paper's exact GP: highest fidelity, O(n³)
	// hyperparameter refits.
	SurrogateExact SurrogateBackend = "exact"
	// SurrogateFeatures is Bayesian linear regression on a random-Fourier-
	// feature basis of the SE-ARD kernel: O(n·m²) fits and O(m²)
	// incremental updates/predictions, independent of the history length.
	SurrogateFeatures SurrogateBackend = "features"
)

// FailurePolicy decides what an optimization run does when an evaluation
// fails: the objective panics, returns NaN or ±Inf, exceeds AsyncOptions.EvalTimeout,
// or the run's context is cancelled.
type FailurePolicy int

const (
	// AbortOnFailure stops the run with an error on the first failed
	// evaluation (default).
	AbortOnFailure FailurePolicy = iota
	// SkipFailures drops failed evaluations: they consume evaluation budget
	// (a worker ran them) but never reach the surrogate. The run completes
	// with fewer observations than MaxEvals.
	SkipFailures
	// RetryFailures resubmits the failed point on the freed worker without
	// consuming extra budget, bounded by AsyncOptions.MaxFailures.
	RetryFailures
)

// AsyncOptions tunes the fault tolerance of asynchronous execution. The
// zero value preserves strict behavior: no timeout, no retries, abort on
// the first failure.
//
// For Optimize (virtual time), Context, Policy, and MaxFailures apply — the
// only virtual failure mode is a non-finite objective value. For OptimizeParallel every
// field applies, and panics inside the objective are recovered into
// failures instead of crashing the run.
type AsyncOptions struct {
	// Context cancels the run between completions; nil means never.
	Context context.Context
	// EvalTimeout bounds each objective call in OptimizeParallel; a call
	// exceeding it is abandoned and treated as failed.
	EvalTimeout time.Duration
	// Retries is how many extra attempts a failed objective call gets on
	// its worker before the failure surfaces to the policy.
	Retries int
	// Policy selects what happens to evaluations that still fail.
	Policy FailurePolicy
	// MaxFailures aborts the run after this many failed evaluations
	// (0 = policy default: unlimited for SkipFailures, MaxEvals for
	// RetryFailures).
	MaxFailures int
}

// Options tunes an optimization run. The zero value requests the paper's
// defaults (EasyBO, 20 initial points, λ = 6).
type Options struct {
	Algorithm  Algorithm // default EasyBO
	Workers    int       // parallel evaluations B (default 1)
	InitPoints int       // initial Latin-hypercube design (default 20)
	MaxEvals   int       // total evaluations including init (default 150)
	Seed       int64     // deterministic seed
	Lambda     float64   // κ upper bound of the EasyBO acquisition (default 6)

	// Surrogate cost control (defaults match the experiment harness).
	RefitEvery int // hyperparameter refit cadence in observations
	FitIters   int // optimizer iterations per hyperparameter fit

	// Surrogate selects the model backend (default SurrogateAuto).
	// EscalateAt is the observation count at which SurrogateAuto switches
	// from the exact GP to the feature-space backend (default 500).
	Surrogate  SurrogateBackend
	EscalateAt int

	// Async tunes failure handling, cancellation, timeouts, and retries.
	Async AsyncOptions
}

// Evaluation is one completed objective evaluation.
type Evaluation struct {
	X          []float64
	Y          float64 // NaN when Err != nil
	Start, End float64 // seconds (virtual for Optimize, wall for OptimizeParallel)
	Worker     int
	Err        error // non-nil when the evaluation failed
	Attempts   int   // objective calls spent (1 + retries; 0 reported as 1)
}

// Result is the outcome of an optimization run.
type Result struct {
	BestX       []float64
	BestY       float64
	Evaluations []Evaluation // successful evaluations, completion order
	Failed      []Evaluation // failed evaluations (skipped or exhausted retries)
	Workers     int          // pool size B of the run
	// Seconds is the makespan: virtual simulator seconds for Optimize,
	// wall-clock seconds for OptimizeParallel.
	Seconds float64
}

// WorkerUtilization returns, per worker slot, the fraction of the makespan
// spent evaluating (failed evaluations occupied their slot and count too).
func (r *Result) WorkerUtilization() []float64 {
	all := make([]sched.Result, 0, len(r.Evaluations)+len(r.Failed))
	for _, set := range [][]Evaluation{r.Evaluations, r.Failed} {
		for _, e := range set {
			all = append(all, sched.Result{Worker: e.Worker, Start: e.Start, End: e.End})
		}
	}
	return sched.Utilization(all, r.Workers)
}

func (p Problem) toInternal() (*objective.Problem, error) {
	ip := &objective.Problem{
		Name: p.Name, Lo: p.Lo, Hi: p.Hi,
		Eval: p.Objective, NewEval: p.NewObjective, Cost: p.Cost,
	}
	if err := ip.Validate(); err != nil {
		return nil, err
	}
	return ip, nil
}

func (o Options) toConfig() (bo.Config, error) {
	algo, err := o.algorithm()
	if err != nil {
		return bo.Config{}, err
	}
	failure, err := o.Async.Policy.toCore()
	if err != nil {
		return bo.Config{}, err
	}
	backend, err := surrogate.ParseBackend(string(o.Surrogate))
	if err != nil {
		return bo.Config{}, fmt.Errorf("easybo: %w", err)
	}
	return bo.Config{
		Algo:        algo,
		BatchSize:   o.Workers,
		InitPoints:  o.InitPoints,
		MaxEvals:    o.MaxEvals,
		Seed:        o.Seed,
		Lambda:      o.Lambda,
		RefitEvery:  o.RefitEvery,
		FitIters:    o.FitIters,
		Surrogate:   backend,
		EscalateAt:  o.EscalateAt,
		Failure:     failure,
		MaxFailures: o.Async.MaxFailures,
		Ctx:         o.Async.Context,
	}, nil
}

func (p FailurePolicy) toCore() (core.FailurePolicy, error) {
	switch p {
	case AbortOnFailure:
		return core.FailAbort, nil
	case SkipFailures:
		return core.FailSkip, nil
	case RetryFailures:
		return core.FailResubmit, nil
	default:
		return 0, fmt.Errorf("easybo: unknown failure policy %d", int(p))
	}
}

func (o Options) algorithm() (bo.Algorithm, error) {
	switch o.Algorithm {
	case "", EasyBO:
		if o.Workers <= 1 {
			return bo.AlgoEasyBOSeq, nil
		}
		return bo.AlgoEasyBO, nil
	case EasyBOA:
		return bo.AlgoEasyBOA, nil
	case EasyBOSync:
		return bo.AlgoEasyBOSP, nil
	case EasyBOS:
		return bo.AlgoEasyBOS, nil
	case PBO:
		return bo.AlgoPBO, nil
	case PHCBO:
		return bo.AlgoPHCBO, nil
	case EI:
		return bo.AlgoEI, nil
	case LCB:
		return bo.AlgoLCB, nil
	case DE:
		return bo.AlgoDE, nil
	case RandomSearch:
		return bo.AlgoRandom, nil
	case TS:
		return bo.AlgoTS, nil
	case GPHedge:
		return bo.AlgoPortfolio, nil
	default:
		return "", fmt.Errorf("easybo: unknown algorithm %q", o.Algorithm)
	}
}

func evalFromResult(r sched.Result) Evaluation {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	return Evaluation{
		X: r.X, Y: r.Y, Start: r.Start, End: r.End, Worker: r.Worker,
		Err: r.Err, Attempts: attempts,
	}
}

func resultFromHistory(h *bo.History) *Result {
	res := &Result{BestX: h.BestX, BestY: h.BestY, Seconds: h.Makespan, Workers: h.BatchSize}
	for _, r := range h.Records {
		res.Evaluations = append(res.Evaluations, evalFromResult(r))
	}
	for _, r := range h.Failed {
		res.Failed = append(res.Failed, evalFromResult(r))
	}
	return res
}

// Optimize maximizes the problem's objective with the selected algorithm on
// the virtual-time executor. When Problem.Cost is set, Result.Seconds is
// the exact simulated wall-clock the run would have taken on Workers
// parallel simulators. Deterministic given Options.Seed.
func Optimize(p Problem, opts Options) (*Result, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, err
	}
	h, err := bo.Run(ip, cfg)
	if err != nil {
		return nil, err
	}
	return resultFromHistory(h), nil
}

// OptimizeParallel maximizes the objective with EasyBO on real goroutines:
// Workers concurrent calls to Problem.Objective, a new suggestion issued the
// moment one returns. Use it when evaluations are genuinely expensive. The
// suggestion sequence is seeded by Options.Seed, but completion order (and
// therefore the trajectory) depends on real execution times.
//
// Evaluations are fault-isolated: a panicking objective, a NaN or ±Inf value, or a
// call exceeding Options.Async.EvalTimeout becomes a failed evaluation
// handled per Options.Async.Policy (abort by default, or skip/retry), never
// a crashed run or a leaked worker.
func OptimizeParallel(p Problem, opts Options) (*Result, error) {
	ip, err := p.toInternal()
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 150
	}
	a := opts.Async
	policy, err := a.Policy.toCore()
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: opts.Workers}
	at, err := newMachine(ip, opts, core.AskTellConfig{
		MaxEvals:    opts.MaxEvals,
		Failure:     policy,
		MaxFailures: a.MaxFailures,
		OnResult:    func(r sched.Result) { res.Evaluations = append(res.Evaluations, evalFromResult(r)) },
		OnFailure:   func(r sched.Result) { res.Failed = append(res.Failed, evalFromResult(r)) },
	})
	if err != nil {
		return nil, err
	}
	gopts := sched.GoOptions{Context: a.Context, Timeout: a.EvalTimeout, Retries: a.Retries}
	var ex *sched.GoExecutor
	if ip.NewEval != nil && a.EvalTimeout == 0 && a.Context == nil {
		// Stateful per-worker simulator instances: each worker owns a
		// compiled circuit and reuses its solver workspaces across
		// evaluations. (With a timeout or a cancelable context, abandoned
		// attempts could overlap a slot's next evaluation, so the shared
		// concurrency-safe objective is used instead.)
		evals := make([]sched.GoEvalCtx, opts.Workers)
		for i := range evals {
			inst := ip.NewEval()
			evals[i] = func(_ context.Context, x []float64) (float64, error) {
				return inst(x), nil
			}
		}
		ex = sched.NewGoCtxPerWorker(evals, gopts)
	} else {
		ex = sched.NewGoCtx(opts.Workers, func(_ context.Context, x []float64) (float64, error) {
			return ip.Eval(x), nil
		}, gopts)
	}
	ctx := a.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if err := at.Run(ctx, ex, false); err != nil {
		return nil, err
	}
	res.BestX, res.BestY = at.Best()
	for _, set := range [][]Evaluation{res.Evaluations, res.Failed} {
		for _, e := range set {
			res.Seconds = max(res.Seconds, e.End)
		}
	}
	return res, nil
}
