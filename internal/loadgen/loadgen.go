package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"easybo/internal/serve"
	"easybo/internal/surrogate"
)

// Options configures one load run against a live easybod endpoint.
type Options struct {
	// BaseURL is the daemon endpoint ("http://127.0.0.1:7823"). Required.
	BaseURL string
	// Sessions is the number of concurrent sessions driven (default 8).
	Sessions int
	// WorkersPerSession is the worker goroutines per session issuing
	// ask/tell round trips (default 1).
	WorkersPerSession int
	// Duration bounds the run (default 10s).
	Duration time.Duration
	// SeedGroups partitions sessions into groups sharing a seed (default
	// 2). Same-seed sessions propose bitwise-identical Latin-hypercube
	// designs, so every group beyond the first is a repeated-point
	// workload — the evaluation cache's natural traffic.
	SeedGroups int
	// Dim is the design-space dimensionality (default 4).
	Dim int
	// InitPoints is each session's Latin-hypercube design size (default
	// 32). Sessions run with an unbounded eval budget so the run is
	// time-bounded, not budget-bounded.
	InitPoints int
	// EvalDelay simulates per-evaluation simulator cost on fresh (uncached)
	// evaluations (default 0: the daemon itself is the bottleneck under
	// test).
	EvalDelay time.Duration
	// Testbench labels the synthetic objective for the evaluation cache;
	// empty opts the run out of caching entirely.
	Testbench string
	// SessionPrefix namespaces session ids (default "loadgen"), letting
	// concurrent runs share a daemon.
	SessionPrefix string
	// MaxRetries bounds 429/5xx retries per call (default 50; sheds are
	// expected traffic under admission-control runs).
	MaxRetries int
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

func (o *Options) normalize() error {
	if o.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL is required")
	}
	if o.Sessions <= 0 {
		o.Sessions = 8
	}
	if o.WorkersPerSession <= 0 {
		o.WorkersPerSession = 1
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.SeedGroups <= 0 {
		o.SeedGroups = 2
	}
	if o.SeedGroups > o.Sessions {
		o.SeedGroups = o.Sessions
	}
	if o.Dim <= 0 {
		o.Dim = 4
	}
	if o.InitPoints <= 0 {
		o.InitPoints = 32
	}
	if o.SessionPrefix == "" {
		o.SessionPrefix = "loadgen"
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 50
	}
	if o.Client == nil {
		// net/http's zero-value transport keeps only 2 idle connections per
		// host; with hundreds of workers hammering one daemon that means a
		// TCP dial (and slow-start) on nearly every round trip, measuring
		// the dialer instead of the daemon. Size the idle pool to the whole
		// worker fleet so steady state is pure keep-alive traffic.
		conns := o.Sessions*o.WorkersPerSession + 4
		o.Client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return nil
}

// Quantiles summarizes one latency distribution in nanoseconds.
type Quantiles struct {
	P50 int64 `json:"p50_ns"`
	P95 int64 `json:"p95_ns"`
	P99 int64 `json:"p99_ns"`
	Max int64 `json:"max_ns"`
}

// Summary is one load run's result.
type Summary struct {
	Sessions    int           `json:"sessions"`
	Workers     int           `json:"workers"` // total worker goroutines
	Elapsed     time.Duration `json:"elapsed_ns"`
	Asks        int64         `json:"asks"`  // successful ask round trips
	Tells       int64         `json:"tells"` // successful tell round trips
	Errors      int64         `json:"errors"`
	Shed        int64         `json:"shed"` // 429 responses absorbed (retried, not errors)
	CachedHits  int64         `json:"cache_hits"`
	Joins       int64         `json:"inflight_joins"`
	Waits       int64         `json:"waits"` // ask returned "wait"
	AsksPerSec  float64       `json:"asks_per_sec"`
	TellsPerSec float64       `json:"tells_per_sec"`
	AskLatency  Quantiles     `json:"ask_latency"`
	TellLatency Quantiles     `json:"tell_latency"`
	// Tell response bodies: the mean and the largest one seen. A tell is
	// acknowledged with a constant-size document, so both stay a few hundred
	// bytes however long the sessions ran.
	TellRespBytes    float64 `json:"tell_resp_bytes"`
	TellRespBytesMax int64   `json:"tell_resp_bytes_max"`
}

// Client is the harness's minimal retrying JSON caller, exported so the
// shed-equivalence test drives a throttled daemon through the exact code
// path the load run uses. 429s and 5xx are retried with a short capped
// backoff; the daemon's Retry-After (a 1s floor meant for production
// workers) is deliberately NOT honored — the harness's whole job is to
// hold the daemon at its admission limit and measure, and idling a second
// per shed would measure the harness's politeness instead. cmd/easybo is
// the client that honors it.
type Client struct {
	HC         *http.Client
	Base       string
	MaxRetries int
}

// Call performs one JSON round trip. shed counts 429 responses absorbed
// along the way; lat is the wall-clock of the final (successful or
// decisive) attempt only, so admission backoff does not pollute the
// service-latency distribution.
func (c *Client) Call(ctx context.Context, method, path string, body, out any) (shed int64, lat time.Duration, err error) {
	shed, lat, _, err = c.call(ctx, method, path, body, out)
	return shed, lat, err
}

// call is Call that also reports the size of the response body it accepted.
func (c *Client) call(ctx context.Context, method, path string, body, out any) (shed int64, lat time.Duration, size int, err error) {
	var payload []byte
	if body != nil {
		if payload, err = json.Marshal(body); err != nil {
			return 0, 0, 0, err
		}
	}
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, rerr := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
		if rerr != nil {
			return shed, 0, 0, rerr
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, derr := c.HC.Do(req)
		lat = time.Since(start)
		if derr != nil {
			if ctx.Err() != nil {
				return shed, lat, 0, ctx.Err()
			}
			err = derr
		} else {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
			resp.Body.Close()
			if rerr != nil {
				err = rerr
			} else if resp.StatusCode == http.StatusTooManyRequests {
				shed++
				err = fmt.Errorf("loadgen: shed (HTTP 429)")
			} else if resp.StatusCode/100 != 2 {
				return shed, lat, 0, fmt.Errorf("loadgen: %s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
			} else {
				if out != nil {
					if uerr := json.Unmarshal(data, out); uerr != nil {
						return shed, lat, 0, uerr
					}
				}
				return shed, lat, len(data), nil
			}
		}
		if attempt >= c.MaxRetries {
			return shed, lat, 0, fmt.Errorf("loadgen: giving up after %d attempts: %w", attempt+1, err)
		}
		select {
		case <-ctx.Done():
			return shed, lat, 0, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// objective is the synthetic simulator: a cheap deterministic quadratic,
// so identical points produce identical values and the run measures the
// daemon, not the objective.
func objective(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += (v - 0.3) * (v - 0.3)
	}
	return -s
}

// worker accumulates its own counters and histograms; merged after the run
// so the measurement path shares nothing.
type workerStats struct {
	asks, tells, errors, shed int64
	cached, joins, waits      int64
	askLat, tellLat           histogram
	tellBytes, tellBytesMax   int64 // tell response bodies: total and largest
}

// Run drives the load: Sessions sessions × WorkersPerSession workers of
// ask → evaluate → tell round trips for Duration, against the daemon at
// BaseURL. Sessions are created at start and deleted afterward (best
// effort). The returned summary aggregates every worker.
func Run(ctx context.Context, o Options) (*Summary, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	cl := &Client{HC: o.Client, Base: o.BaseURL, MaxRetries: o.MaxRetries}

	ids := make([]string, o.Sessions)
	lo, hi := make([]float64, o.Dim), make([]float64, o.Dim)
	for i := range hi {
		hi[i] = 1
	}
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", o.SessionPrefix, i)
		// The daemon's own config type under the one field a create adds to
		// it; MaxEvals stays 0, unbounded: the run is time-limited.
		body := struct {
			ID string `json:"id"`
			serve.SessionConfig
		}{ids[i], serve.SessionConfig{
			Lo: lo, Hi: hi,
			InitPoints: o.InitPoints,
			Seed:       int64(i % o.SeedGroups),
			// Flat per-suggest cost, so throughput does not decay over a
			// long run.
			Surrogate: string(surrogate.BackendFeatures),
			FitIters:  8, RefitEvery: 8,
			Testbench: o.Testbench,
		}}
		if _, _, err := cl.Call(ctx, http.MethodPost, "/sessions", body, nil); err != nil {
			return nil, fmt.Errorf("loadgen: creating session %s: %w", ids[i], err)
		}
	}
	defer func() {
		for _, id := range ids {
			req, err := http.NewRequest(http.MethodDelete, o.BaseURL+"/sessions/"+id, nil)
			if err == nil {
				if resp, err := o.Client.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	runCtx, cancel := context.WithTimeout(ctx, o.Duration)
	defer cancel()

	nWorkers := o.Sessions * o.WorkersPerSession
	stats := make([]workerStats, nWorkers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drive(runCtx, cl, ids[w%o.Sessions], o.EvalDelay, &stats[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := &Summary{Sessions: o.Sessions, Workers: nWorkers, Elapsed: elapsed}
	var askH, tellH histogram
	var tellBytes int64
	for i := range stats {
		st := &stats[i]
		sum.Asks += st.asks
		sum.Tells += st.tells
		sum.Errors += st.errors
		sum.Shed += st.shed
		sum.CachedHits += st.cached
		sum.Joins += st.joins
		sum.Waits += st.waits
		tellBytes += st.tellBytes
		if st.tellBytesMax > sum.TellRespBytesMax {
			sum.TellRespBytesMax = st.tellBytesMax
		}
		askH.merge(&st.askLat)
		tellH.merge(&st.tellLat)
	}
	secs := elapsed.Seconds()
	if secs > 0 {
		sum.AsksPerSec = float64(sum.Asks) / secs
		sum.TellsPerSec = float64(sum.Tells) / secs
	}
	if sum.Tells > 0 {
		sum.TellRespBytes = float64(tellBytes) / float64(sum.Tells)
	}
	sum.AskLatency = Quantiles{P50: askH.quantile(0.50), P95: askH.quantile(0.95), P99: askH.quantile(0.99), Max: askH.max}
	sum.TellLatency = Quantiles{P50: tellH.quantile(0.50), P95: tellH.quantile(0.95), P99: tellH.quantile(0.99), Max: tellH.max}
	return sum, nil
}

// drive is one worker's loop: ask, act on the cache hint, tell. The
// context deadline ends the run; in-flight round trips finish (their
// context is the run context, so a straggler is cut off, counted as
// neither success nor error).
func drive(ctx context.Context, cl *Client, session string, evalDelay time.Duration, st *workerStats) {
	base := "/sessions/" + session
	for {
		if ctx.Err() != nil {
			return
		}
		var a serve.Ask
		shed, lat, err := cl.Call(ctx, http.MethodPost, base+"/ask", map[string]any{}, &a)
		st.shed += shed
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			st.errors++
			continue
		}
		st.asks++
		st.askLat.observe(lat)
		switch a.Status {
		case serve.AskOK:
		case serve.AskWait:
			st.waits++
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		default: // "done" — unbounded sessions never finish, but be safe
			return
		}
		var y float64
		switch a.Eval {
		case serve.EvalCached:
			st.cached++
			if a.Y != nil {
				y = *a.Y
			}
		case serve.EvalInflight:
			// The daemon delivers this proposal itself when the in-flight
			// evaluation lands; this worker moves straight to its next ask.
			st.joins++
			continue
		default:
			y = objective(a.X)
			if evalDelay > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(evalDelay):
				}
			}
		}
		tell := serve.Tell{ProposalID: &a.ProposalID, Y: y}
		shed, lat, size, err := cl.call(ctx, http.MethodPost, base+"/tell", tell, nil)
		st.shed += shed
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			st.errors++
			continue
		}
		st.tells++
		st.tellLat.observe(lat)
		st.tellBytes += int64(size)
		if int64(size) > st.tellBytesMax {
			st.tellBytesMax = int64(size)
		}
	}
}
