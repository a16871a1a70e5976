package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"easybo"
	"easybo/internal/serve"
)

// quadratic is a 2-D problem with its maximum at (0.3, 0.6).
func quadratic(name string) easybo.Problem {
	return easybo.Problem{
		Name: name,
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Objective: func(x []float64) float64 {
			return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
		},
	}
}

// newDaemon is a recovered serve.Server on an in-memory WAL.
func newDaemon(t *testing.T) *serve.Server {
	sv := serve.NewServerWith(serve.ServerOptions{Store: memStore(t)})
	if _, err := sv.Recover(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Close)
	return sv
}

// TestClientMakesNoStatusRead: the idempotency keys are the client's only
// retry contract, so a run never reads the session status — neither a bare
// GET /sessions/{id} nor a ?since= page of it.
func TestClientMakesNoStatusRead(t *testing.T) {
	sv := newDaemon(t)
	var bare, paged atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, "/sessions/")
		if r.Method == http.MethodGet && ok && rest != "" && !strings.Contains(rest, "/") {
			if r.URL.Query().Has("since") {
				paged.Add(1)
			} else {
				bare.Add(1)
			}
		}
		sv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	opts := easybo.Options{InitPoints: 6, MaxEvals: 12, Seed: 17, Workers: 2, FitIters: 4, RefitEvery: 4}
	res, err := runRemote(ts.URL, quadratic("status"), opts, "abort", 8, 0)
	if err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	if len(res.Evaluations) != opts.MaxEvals || len(res.BestX) != 2 {
		t.Fatalf("%d evaluations, best_x %v", len(res.Evaluations), res.BestX)
	}
	if bare.Load() != 0 || paged.Load() != 0 {
		t.Fatalf("%d bare status reads, %d with ?since=; want none", bare.Load(), paged.Load())
	}
}

// dropFirst applies the first create, the first ask and the first tell it
// sees, then closes the connection instead of answering: the request landed,
// its response is lost.
type dropFirst struct {
	t    *testing.T
	next http.Handler
	mu   sync.Mutex
	seen map[string]bool
}

func (h *dropFirst) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var kind string
	switch {
	case r.Method != http.MethodPost:
	case r.URL.Path == "/sessions":
		kind = "create"
	case strings.HasSuffix(r.URL.Path, "/ask"):
		kind = "ask"
	case strings.HasSuffix(r.URL.Path, "/tell"):
		kind = "tell"
	}
	h.mu.Lock()
	drop := kind != "" && !h.seen[kind]
	if drop {
		h.seen[kind] = true
	}
	h.mu.Unlock()
	if !drop {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.next.ServeHTTP(rec, r)
	if rec.Code/100 != 2 {
		h.t.Errorf("dropped %s was not applied: HTTP %d %s", kind, rec.Code, rec.Body)
	}
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		h.t.Error(err)
		return
	}
	conn.Close()
}

// TestLostResponsesAreResent: a create, an ask and a tell the daemon applied
// but whose responses were lost are re-sent under the same id or key and
// answered as the first delivery was. The run sees the history of a clean
// run bit for bit, and no session is left on the daemon.
func TestLostResponsesAreResent(t *testing.T) {
	opts := easybo.Options{InitPoints: 6, MaxEvals: 12, Seed: 17, Workers: 1, FitIters: 4, RefitEvery: 4}
	run := func(lossy bool) *easybo.Result {
		sv := newDaemon(t)
		var handler http.Handler = sv
		drop := &dropFirst{t: t, next: sv, seen: map[string]bool{}}
		if lossy {
			handler = drop
		}
		ts := httptest.NewServer(handler)
		defer ts.Close()
		res, err := runRemote(ts.URL, quadratic("lost"), opts, "abort", 8, 0)
		if err != nil {
			t.Fatalf("runRemote(lossy=%v): %v", lossy, err)
		}
		if lossy && len(drop.seen) != 3 {
			t.Fatalf("dropped %v, want a create, an ask and a tell", drop.seen)
		}
		if n := sv.SessionCount(); n != 0 {
			t.Errorf("lossy=%v: %d sessions left on the daemon", lossy, n)
		}
		return res
	}
	clean, lossy := run(false), run(true)
	if len(lossy.Evaluations) != opts.MaxEvals || len(clean.Evaluations) != opts.MaxEvals {
		t.Fatalf("evaluations: clean %d, lossy %d, want %d each", len(clean.Evaluations), len(lossy.Evaluations), opts.MaxEvals)
	}
	for i, a := range clean.Evaluations {
		b := lossy.Evaluations[i]
		for j := range a.X {
			if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
				t.Fatalf("eval %d x[%d]: %v vs %v", i, j, a.X[j], b.X[j])
			}
		}
		if math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("eval %d y: %v vs %v", i, a.Y, b.Y)
		}
	}
	if math.Float64bits(clean.BestY) != math.Float64bits(lossy.BestY) {
		t.Fatalf("best: clean %v, lossy %v", clean.BestY, lossy.BestY)
	}
}

// TestRemoteResubmitCompletesTheBudget: under the retry policy a failed tell
// re-queues its point after other workers may already have been told to
// wait and left. The worker that told the failure asks again, so the run
// still completes every evaluation of the budget.
func TestRemoteResubmitCompletesTheBudget(t *testing.T) {
	sv := newDaemon(t)
	ts := httptest.NewServer(sv)
	defer ts.Close()

	p := quadratic("resubmit")
	p.Objective = injectFaults(p.Objective, 0.5, true)
	opts := easybo.Options{InitPoints: 6, MaxEvals: 12, Seed: 17, Workers: 3, FitIters: 4, RefitEvery: 4}
	res, err := runRemote(ts.URL, p, opts, "retry", 8, 0)
	if err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	if len(res.Evaluations) != opts.MaxEvals || len(res.Failed) == 0 {
		t.Fatalf("%d evaluations, %d failed; want %d and at least one failure resubmitted",
			len(res.Evaluations), len(res.Failed), opts.MaxEvals)
	}
}
