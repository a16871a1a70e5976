package main

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"easybo"
	"easybo/internal/sched"
	"easybo/internal/serve"
)

// httpError is a non-2xx daemon response, typed so the retry layer can
// distinguish transient statuses (5xx) from semantic ones (4xx).
type httpError struct {
	status int
	msg    string
	// retryAfter is the daemon's Retry-After hint (429 shedding), zero
	// when absent or unparseable.
	retryAfter time.Duration
}

func (e *httpError) Error() string { return fmt.Sprintf("%s (HTTP %d)", e.msg, e.status) }

// retrier retries transient failures against the daemon: transport errors
// (connection refused or reset while an orchestrator restarts easybod),
// 5xx responses (503 while a recovery replay runs), 412 (the session is
// mid-handoff between cluster nodes and will land somewhere routable), and
// 429 (the daemon is shedding load — backpressure, not failure: back off
// at least Retry-After and try again).
// Backoff is exponential from 100ms capped at 3s, with half-interval
// jitter so a whole worker pool does not hammer a recovering daemon in
// lockstep. Semantic errors (other 4xx) return immediately.
//
// With several endpoints (-serve a,b,c against an easybod cluster) the
// retrier pins a preferred endpoint and fails over to the next on a
// transport error or 5xx: any cluster node routes any session, so the
// surviving nodes keep the run alive through a node loss.
//
// Retries are bounded two ways: maxRetries per call, and budget — a total
// retry wall-clock cap enforced as a context deadline on every attempt, so
// a daemon that stays down fails the run in bounded time instead of each
// worker sleeping through its full backoff schedule.
type retrier struct {
	hc         *http.Client
	bases      []string
	maxRetries int
	budget     time.Duration

	mu  sync.Mutex
	cur int // index of the preferred endpoint in bases
	rng *rand.Rand
}

func newRetrier(hc *http.Client, bases []string, maxRetries int, budget time.Duration) *retrier {
	return &retrier{
		hc:         hc,
		bases:      bases,
		maxRetries: maxRetries,
		budget:     budget,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// base returns the preferred endpoint.
func (r *retrier) base() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bases[r.cur]
}

// demote rotates away from a failed endpoint, if it is still the
// preferred one (a concurrent worker may already have rotated).
func (r *retrier) demote(failed string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bases[r.cur] == failed && len(r.bases) > 1 {
		r.cur = (r.cur + 1) % len(r.bases)
	}
}

func (r *retrier) backoff(retry int) time.Duration {
	d := 100 * time.Millisecond
	for i := 0; i < retry && d < 3*time.Second; i++ {
		d *= 2
	}
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d/2) + 1))
	r.mu.Unlock()
	return d/2 + j
}

func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500 ||
			he.status == http.StatusPreconditionFailed ||
			he.status == http.StatusTooManyRequests
	}
	return err != nil // transport-level failure
}

// failover reports whether the error justifies demoting the endpoint: the
// node is unreachable or broken. A 412 does not — any node routes, the
// session is just mid-transfer. Neither does a 429: the daemon is healthy
// and deliberately shedding, and with cluster forwarding its siblings are
// under the same pressure — rotating would just spread the stampede.
func failover(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status >= 500
	}
	return err != nil
}

// call is callJSON plus the retry/failover loop; path is endpoint-relative
// ("/sessions/x/ask"). ik, when non-empty, rides every attempt as the
// idempotency header so a re-sent mutation is recognized and applied once.
// resent reports whether the request was re-sent after a transport error —
// i.e. the daemon may have applied an earlier attempt whose response was
// lost, so a 409 on a resent tell means "already applied", not a bug.
func (r *retrier) call(method, path string, body, out any, ik string) (resent bool, err error) {
	ctx := context.Background()
	if r.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.budget)
		defer cancel()
	}
	for retry := 0; ; retry++ {
		base := r.base()
		err = callJSON(ctx, r.hc, method, base+path, body, out, ik)
		if err == nil || !retryable(err) || retry >= r.maxRetries {
			break
		}
		if failover(err) {
			r.demote(base)
		}
		var he *httpError
		if !errors.As(err, &he) {
			// A transport error means the request may have reached the
			// daemon even though the response never came back.
			resent = true
		}
		d := r.backoff(retry)
		if he != nil && he.retryAfter > d {
			// The daemon asked for a longer pause than the backoff schedule
			// would take; honor it.
			d = he.retryAfter
		}
		if deadline, ok := ctx.Deadline(); ok {
			if remain := time.Until(deadline); remain <= d {
				err = fmt.Errorf("retry budget %s exhausted after %d attempt(s): %w", r.budget, retry+1, err)
				break
			}
		}
		time.Sleep(d)
	}
	if err != nil && ctx.Err() != nil && !strings.Contains(err.Error(), "retry budget") {
		err = fmt.Errorf("retry budget %s exhausted: %w", r.budget, err)
	}
	return resent, err
}

// newIK mints a client-side idempotency key for one logical mutation.
func newIK() string {
	var b [12]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "" // no key: the retry falls back to the 409 heuristic
	}
	return "cli-" + hex.EncodeToString(b[:])
}

// runRemote drives a remote easybod daemon: it creates one optimization
// session and runs Workers local goroutines as a worker pool, each looping
// ask → evaluate the built-in testbench → tell. The daemon owns the
// surrogate and the suggestion sequence; this process is nothing but
// simulator capacity, exactly how a farm of HSPICE hosts would attach.
//
// serveURL may list several comma-separated endpoints — the nodes of an
// easybod cluster. Any of them serves any session, so the client fails
// over to the next endpoint when one dies and the run survives.
//
// Evaluation wall-clock intervals are measured locally, so the returned
// Result carries real per-worker timing and utilization like
// OptimizeParallel does.
func runRemote(serveURL string, p easybo.Problem, opts easybo.Options, policy string, maxRetries int, retryBudget time.Duration) (*easybo.Result, error) {
	var bases []string
	for _, b := range strings.Split(serveURL, ",") {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			bases = append(bases, b)
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("easybo: -serve needs at least one endpoint")
	}
	var algo string
	switch opts.Algorithm {
	case "", easybo.EasyBO:
		algo = "easybo"
	case easybo.EasyBOA:
		algo = "easybo-a"
	default:
		return nil, fmt.Errorf("easybo: -serve supports easybo and easybo-a, not %q", opts.Algorithm)
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 150
	}
	if policy == "retry" {
		policy = "resubmit" // the daemon's name for the same policy
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	rt := newRetrier(hc, bases, maxRetries, retryBudget)

	// Requests and responses are the daemon's own wire types, so a renamed
	// field there is a compile error here.
	cfg := serve.SessionConfig{
		Name:        p.Name,
		Lo:          p.Lo,
		Hi:          p.Hi,
		Algorithm:   algo,
		InitPoints:  opts.InitPoints,
		MaxEvals:    opts.MaxEvals,
		Seed:        opts.Seed,
		Lambda:      opts.Lambda,
		RefitEvery:  opts.RefitEvery,
		FitIters:    opts.FitIters,
		Surrogate:   string(opts.Surrogate),
		EscalateAt:  opts.EscalateAt,
		Failure:     policy,
		MaxFailures: opts.Async.MaxFailures,
	}
	var created serve.Status
	if _, err := rt.call(http.MethodPost, "/sessions", cfg, &created, newIK()); err != nil {
		return nil, fmt.Errorf("easybo: creating session: %w", err)
	}
	// This client created the session, so it owns the lifecycle: delete it
	// on every way out — a failed run included — so repeated CLI runs don't
	// accumulate actors and event logs in a long-lived daemon. Best effort:
	// whatever the run produced is already local.
	defer func() {
		_ = callJSON(context.Background(), hc, http.MethodDelete, rt.base()+"/sessions/"+created.ID, nil, nil, "")
	}()

	var (
		mu       sync.Mutex
		evals    []easybo.Evaluation
		failed   []easybo.Evaluation
		firstErr error
		// held is every proposal id a local worker has held, evaluated or
		// told: an id is never dropped after its tell, because a status an
		// orphan scan read before that tell landed still lists it as
		// outstanding, and adopting it again would tell it twice (a 409).
		held   = map[int]bool{}
		asking int // local asks sent whose proposal is not claimed yet
		seen   int // most observations any tell ack has reported
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// statusPath is the status read past the history this client already
	// told: ?since=seen leaves the records out, so a poll costs O(pending)
	// and the document stays small however long the session has run.
	statusPath := func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprintf("/sessions/%s?since=%d", created.ID, seen)
	}
	claim := func(pid int) bool {
		mu.Lock()
		defer mu.Unlock()
		if held[pid] {
			return false
		}
		held[pid] = true
		return true
	}
	// adoptOrphan looks for an outstanding proposal no local worker holds:
	// work orphaned when an ask was applied by the daemon but its response
	// was lost to a retried transport failure. Without adoption such a
	// proposal would pin the session's budget open forever.
	adoptOrphan := func() (serve.Ask, bool, error) {
		var st serve.Status
		if _, err := rt.call(http.MethodGet, statusPath(), nil, &st, ""); err != nil {
			return serve.Ask{}, false, err
		}
		// An outstanding proposal may be the answer to a sibling worker's
		// ask that it has not claimed yet, not an orphan: wait those out.
		mu.Lock()
		pending := asking
		mu.Unlock()
		if pending > 0 {
			return serve.Ask{}, false, nil
		}
		for _, p := range st.Outstanding {
			if claim(p.ProposalID) {
				return serve.Ask{Status: serve.AskOK, ProposalID: p.ProposalID, X: p.X}, true, nil
			}
		}
		return serve.Ask{}, false, nil
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				var a serve.Ask
				// One key per logical ask: if the response is lost and the
				// call re-sent, the daemon returns the same proposal instead
				// of minting a second one (orphan adoption is the backstop
				// for pre-cluster daemons).
				mu.Lock()
				asking++
				mu.Unlock()
				_, err := rt.call(http.MethodPost, "/sessions/"+created.ID+"/ask", map[string]any{}, &a, newIK())
				mu.Lock()
				asking--
				if err == nil && a.Status == serve.AskOK {
					held[a.ProposalID] = true
				}
				mu.Unlock()
				if err != nil {
					setErr(fmt.Errorf("easybo: ask: %w", err))
					return
				}
				switch a.Status {
				case serve.AskDone:
					return
				case serve.AskWait:
					orphan, ok, err := adoptOrphan()
					if err != nil {
						setErr(fmt.Errorf("easybo: scanning for orphaned proposals: %w", err))
						return
					}
					if !ok {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					a = orphan
				}
				if a.Eval == serve.EvalInflight {
					// Another session's worker is evaluating this exact point;
					// the daemon tells this proposal itself when it lands. The
					// pid stays claimed so this client does not re-adopt it as
					// an orphan and race the daemon's delivery.
					continue
				}
				start := time.Since(t0).Seconds()
				var y float64
				var evalErr string
				attempts := 0
				if a.Eval == serve.EvalCached && a.Y != nil {
					// Prior result for an identical evaluation: skip the
					// simulation and report the recorded value back.
					y = *a.Y
				} else {
					// Same contract as -parallel: a failing objective gets
					// Retries extra attempts on its worker before the failure
					// is told to the daemon and its policy applies.
					y, evalErr = safeEval(p.Objective, a.X)
					attempts = 1
					for evalErr != "" && attempts <= opts.Async.Retries {
						attempts++
						y, evalErr = safeEval(p.Objective, a.X)
					}
				}
				end := time.Since(t0).Seconds()
				t := serve.Tell{ProposalID: &a.ProposalID, Y: y}
				ev := easybo.Evaluation{X: a.X, Y: y, Start: start, End: end, Worker: worker, Attempts: attempts}
				if evalErr != "" {
					t.Y, t.Error = 0, evalErr
					ev.Y = math.NaN()
					ev.Err = fmt.Errorf("%s", evalErr)
				}
				var ack serve.TellAck
				resent, err := rt.call(http.MethodPost, "/sessions/"+created.ID+"/tell", t, &ack, newIK())
				if err != nil {
					// A 409 on a resent tell means the daemon durably applied
					// an earlier attempt and already consumed the proposal —
					// the observation is in, only the response was lost.
					var he *httpError
					if !(resent && errors.As(err, &he) && he.status == http.StatusConflict) {
						setErr(fmt.Errorf("easybo: tell: %w", err))
						return
					}
				}
				mu.Lock()
				if ack.Observations > seen {
					seen = ack.Observations
				}
				if evalErr != "" {
					failed = append(failed, ev)
				} else {
					evals = append(evals, ev)
				}
				mu.Unlock()
				if ack.Aborted != "" {
					setErr(fmt.Errorf("easybo: session aborted by daemon: %s", ack.Aborted))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	var status serve.Status
	if _, err := rt.call(http.MethodGet, statusPath(), nil, &status, ""); err != nil {
		return nil, fmt.Errorf("easybo: reading final status: %w", err)
	}
	res := &easybo.Result{
		BestX:       status.BestX,
		Evaluations: evals,
		Failed:      failed,
		Workers:     opts.Workers,
		BestY:       math.Inf(-1),
	}
	if status.BestY != nil {
		res.BestY = *status.BestY
	}
	for _, set := range [][]easybo.Evaluation{evals, failed} {
		for _, e := range set {
			if e.End > res.Seconds {
				res.Seconds = e.End
			}
		}
	}
	return res, nil
}

// safeEval runs the objective, converting panics and non-finite results
// (sched.ValueErr: the classification every engine shares) into a failure
// message for the tell (a crashed or diverged remote simulator).
func safeEval(obj func([]float64) float64, x []float64) (y float64, evalErr string) {
	defer func() {
		if r := recover(); r != nil {
			y, evalErr = 0, fmt.Sprintf("objective panicked: %v", r)
		}
	}()
	y = obj(x)
	if sched.ValueErr(y) != nil {
		return 0, fmt.Sprintf("objective returned %v", y)
	}
	return y, ""
}

// callJSON performs one JSON request/response round trip, surfacing the
// daemon's error body on non-2xx statuses. The context carries the
// retrier's total-budget deadline so a hung attempt cannot outlive it.
func callJSON(ctx context.Context, hc *http.Client, method, url string, body, out any, ik string) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if ik != "" {
		req.Header.Set(serve.IdempotencyHeader, ik)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(bytes.TrimSpace(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		he := &httpError{status: resp.StatusCode, msg: msg}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			// Only the delay-seconds form; easybod never sends a date.
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				he.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return he
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}
