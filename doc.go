// Package easybo is an efficient asynchronous batch Bayesian optimization
// library for analog circuit synthesis and other expensive black-box
// maximization problems. It reproduces the EasyBO algorithm of
//
//	S. Zhang, F. Yang, D. Zhou, X. Zeng: "An Efficient Asynchronous Batch
//	Bayesian Optimization Approach for Analog Circuit Synthesis", DAC 2020.
//
// EasyBO drives B parallel workers without synchronization barriers:
// whenever a worker becomes idle it immediately receives the maximizer of a
// randomized-weight acquisition α(x,w) = (1−w)·µ(x) + w·σ̂(x), where
// w = κ/(κ+1) with κ ~ U[0,λ] concentrates sampling on exploration, and σ̂
// is the posterior deviation of a surrogate that "hallucinates" the
// still-running queries as pseudo-observations — collapsing uncertainty
// around busy points so the batch stays diverse without hard penalties.
//
// Three entry points cover the common uses:
//
//   - Optimize runs a complete optimization against a Problem whose
//     evaluations are plain Go functions, on a virtual-time executor (exact,
//     deterministic wall-clock accounting when a Cost model is provided).
//   - OptimizeParallel does the same on real goroutines, for objective
//     functions that are genuinely expensive (external simulators, network
//     calls).
//   - NewLoop exposes an ask-tell interface: Suggest returns the next point
//     to evaluate (accounting for everything suggested but not yet
//     observed), Observe feeds results back. Use this to embed EasyBO in an
//     existing job system.
//
// The circuits subpackage provides the paper's two benchmark problems —
// a two-stage operational amplifier and a class-E power amplifier, both
// evaluated by the built-in SPICE-like simulator — plus classic synthetic
// test functions.
//
// # Performance
//
// The suggestion path is built on an incremental surrogate engine, so the
// cost of keeping B simulators busy does not grow cubically with the
// observation count n:
//
//   - Absorbing a finished observation extends the existing Cholesky factor
//     by one row (O(n²)) instead of rebuilding and refactoring the
//     covariance (O(n²·d) kernel evaluations + O(n³)). The incremental
//     posterior is identical — bitwise, for the built-in kernels — to a
//     from-scratch refit at the same hyperparameters.
//   - Hallucinating the b busy points (the σ̂ of Eq. 9) leaves the factor
//     as it is: the busy set is a Schur complement on it (gp.Busy), two
//     triangular solves per busy point, O(b·n²) per suggestion, and then b
//     kernel evaluations and dot products per prediction.
//   - Hyperparameter re-optimization still pays for full refits, but only on
//     the RefitEvery cadence, warm-started from the previous optimum, over a
//     pairwise-distance cache that turns every Gram build of the fit into
//     one exponential per entry instead of d+1, and in one reused workspace
//     whose Adam steps allocate nothing. The gradient's K⁻¹ shares K's
//     storage: L⁻¹ is built in the covariance matrix's lower triangle, dead
//     once factored, and K⁻¹ is kept packed, half a matrix. A fit with
//     more than one start — a session's first model, a recovery, the
//     hand-off to the feature backend, and every fit OptimizeConstrained
//     runs before a model-based point — runs its independent starts side
//     by side on up to GOMAXPROCS goroutines, a workspace each, with the
//     bits of running them in turn; the cadenced warm-only refit has one
//     start and stays on the caller. The distance cache, the largest
//     buffer a fit needs (n(n−1)/2·d floats), is drawn from a pool that
//     every fit in the process shares and handed back when the fit's last
//     start is done: a refit allocates its Gram matrix, K⁻¹ and factor
//     slots, and a session between refits holds no cache.
//   - The acquisition maximizer sweeps max(20·d, 100) candidates and
//     refines the best three by a projected quasi-Newton ascent on the
//     posterior's analytic gradient (at most 30 value-and-gradient
//     evaluations each), fanned out
//     across goroutines, each worker owning an allocation-free predictor;
//     results are bit-identical for any worker count.
//
// In aggregate a suggestion against n observations costs O(n²) between
// hyperparameter refits, which is what lets the reproduction run far past
// the paper's evaluation budgets. See bench_test.go (BenchmarkGPExtend,
// BenchmarkGPRefit, BenchmarkHallucinate, BenchmarkSuggestHotPath) for the
// measured asymptotics.
//
// The simulator substrate itself runs on a sparse compiled-stamp kernel:
// device stamps are compiled once per circuit into flat slot indices of a
// compressed sparse matrix, the LU split (one generic implementation for
// the real and the complex systems) computes the symbolic analysis once
// and refactors numerically (and partially) with zero allocations per
// Newton iteration, AC sweeps run in parallel over reusable per-worker
// workspaces, and Problem.NewObjective hands each optimization worker a
// private reusable simulator instance, which writes each transient and
// each AC sweep into waveforms and results it owns: a warm class-E or
// serial op-amp evaluation allocates nothing. The real and complex systems
// share one stamping context and one compiled plan, and the dense
// reference is a backend of the same analysis loops, kept for golden
// equivalence (1e-9 on every analysis). See DESIGN.md §2 and §20.
//
// # Choosing a surrogate backend
//
// Options.Surrogate selects the model behind the optimization
// (internal/surrogate is the model layer every consumer goes through; one
// manager, core.ModelManager, fits it on the hyperparameter cadence and
// switches backends):
//
//   - SurrogateExact is the paper's exact Gaussian process: the highest
//     fidelity posterior, with O(n³) hyperparameter refits and O(n²)
//     predictions. Right for runs within the paper's budgets (≲ a few
//     hundred evaluations) and required for non-SE-ARD kernels.
//   - SurrogateFeatures performs Bayesian linear regression on a random-
//     Fourier-feature basis of the SE-ARD kernel: O(n·m²) full fits (the
//     n·m(m+1)/2 multiply-adds of the information matrix's lower triangle,
//     the half its factorization reads) and —
//     decisive for long sessions — O(m²) rank-1 incremental updates and
//     predictions that do not grow with the observation count (m defaults
//     to 256). Hyperparameters are re-estimated periodically on a bounded
//     subsample. The posterior is an m-dimensional approximation: slightly
//     softer than the exact GP, far past it in throughput.
//   - SurrogateAuto (the default) runs exact below Options.EscalateAt
//     observations (default 500) — byte-identical to SurrogateExact there —
//     and escalates to the feature-space backend past it, so long-horizon
//     ask/tell sessions keep a flat per-suggestion latency. See
//     examples/longrun for the latency profile of a 1000-evaluation run.
//
// The easybod service accepts the same choice per session ("surrogate",
// "escalate_at" config fields); snapshots record it, so a restored session
// replays the identical escalation schedule.
//
// # Fault tolerance
//
// Real simulator pools fail: a SPICE run segfaults, diverges to NaN, hangs,
// or the whole campaign is cancelled. The evaluation executors treat all of
// these as first-class failed evaluations, never as crashed runs or leaked
// workers:
//
//   - Every evaluation runs on an explicit worker slot; the slot is released
//     when its result (successful or failed) is absorbed, so worker indices
//     of concurrently running evaluations are always distinct and a crashed
//     evaluation can never deadlock the run.
//   - Panics inside the objective are recovered into failed evaluations;
//     NaN and ±Inf objective values are classified the same way.
//   - Options.Async configures per-evaluation timeouts, bounded retries on
//     the same worker, and context-based cancellation (OptimizeParallel),
//     plus the failure policy shared with virtual runs: AbortOnFailure
//     (default), SkipFailures (the failure consumes budget but never reaches
//     the surrogate), or RetryFailures (the point is resubmitted, bounded by
//     MaxFailures).
//   - Result reports failed evaluations separately from successes, and
//     Result.WorkerUtilization exposes how busy each worker slot was.
//
// For caller-owned pools (NewLoop), Loop.Forget removes a suggested point
// whose evaluation failed permanently, so it stops being hallucinated into
// the surrogate.
//
// # Ask/tell architecture and the easybod service
//
// Internally the optimization loop is inverted: internal/core's AskTell is
// an explicit state machine — Suggest() hands out the next proposal
// (initial-design point, queued resubmission of a failed evaluation, or the
// acquisition maximizer with every pending point hallucinated), and
// Observe(x, y, err) absorbs one outcome in any order, routing failures
// through the shared failure policy. Everything that runs evaluations is a
// thin adapter over that machine: Optimize's executor-driven loop binds
// suggestions to executor launches, OptimizeParallel and Loop bind them to
// caller-owned workers, and the easybod daemon binds them to HTTP.
//
// Command easybod (cmd/easybod) serves many concurrent optimization
// sessions over a JSON HTTP API — POST /sessions, POST /sessions/{id}/ask,
// POST /sessions/{id}/tell, GET /sessions/{id}, plus snapshot/restore
// endpoints for restart-safe sessions. External simulator farms attach as
// plain HTTP clients: ask for a design point, simulate it for however long
// it takes, tell the result back — out of order, from many machines, with
// per-session failure policies (abort, skip, resubmit). Both per-evaluation
// requests cost the same however long the session has run: an ask answers
// one proposal and a tell a constant-size acknowledgement (counters,
// terminal flags, incumbent). The history is the GET, which pages with
// ?since=N. `easybo -serve URL`
// runs the built-in testbenches as such a remote worker pool. See the
// README for a curl walkthrough and DESIGN.md for the session-actor
// concurrency model.
//
// # Determinism and static enforcement
//
// Snapshot restore and crash recovery replay the ask/tell event log. They
// resume at the log's last checkpoint — the surrogate manager's state and
// the rng position recorded in front of a hyperparameter training — retrain
// from there as the live run did, and verify the proposals still in flight
// against the recomputed ones; replay from the first event with every
// proposal verified is the fallback and the offline audit (easybod
// -verify). Either way the whole suggestion path — core, surrogates, linear
// algebra, the simulator — must be bit-for-bit deterministic given (seed,
// config, tell order). That
// invariant is enforced statically: `make lint` runs cmd/easybolint, a
// suite of project-specific analyzers (internal/analysis, stdlib
// go/ast+go/types only) that flag map-iteration order, wall-clock or
// global-rand use, and raw float ==/!= inside the replay-deterministic
// packages, dropped errors on durability calls in the WAL and daemon, and
// malformed or stale suppressions. Intentional exceptions are annotated in
// place:
//
//	//easybolint:ok walltime executor edge: worker timing is wall-clock by nature
//
// The analyzer name and a reason are mandatory, and a directive that no
// longer silences anything is itself reported. DESIGN.md §6 records the
// package-level boundary and the idioms the analyzers steer toward (e.g.
// math.Float64bits comparison for stored-value identity).
package easybo
