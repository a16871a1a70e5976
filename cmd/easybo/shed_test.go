package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"easybo"
	"easybo/internal/serve"
)

// shedEveryNth wraps a serve.Server and injects a 429 + Retry-After shed
// on every nth ask, simulating an overloaded daemon from the client's
// point of view without waiting out real saturation.
type shedEveryNth struct {
	next http.Handler
	n    int32
	asks atomic.Int32
	shed atomic.Int32
}

func (h *shedEveryNth) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/ask") {
		if h.asks.Add(1)%h.n == 0 {
			h.shed.Add(1)
			serve.WriteOverloaded(w)
			return
		}
	}
	h.next.ServeHTTP(w, r)
}

// TestClient429ShedRoundTrip drives a full remote optimization through a
// daemon that sheds every third ask: the retrier must absorb every 429 as
// backoff-not-failure, no tell may be lost, and the run must produce a
// history bitwise identical to the same run against an unthrottled daemon.
func TestClient429ShedRoundTrip(t *testing.T) {
	problem := easybo.Problem{
		Name: "shed-roundtrip",
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Objective: func(x []float64) float64 {
			return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
		},
	}
	opts := easybo.Options{
		InitPoints: 6, MaxEvals: 12, Seed: 17,
		Workers:  1, // sequential: the two runs' tell orders match exactly
		FitIters: 4, RefitEvery: 4,
	}
	run := func(throttle bool) *easybo.Result {
		sv := serve.NewServerWith(serve.ServerOptions{Store: memStore(t)})
		if _, err := sv.Recover(); err != nil {
			t.Fatal(err)
		}
		var handler http.Handler = sv
		var shed *shedEveryNth
		if throttle {
			shed = &shedEveryNth{next: sv, n: 3}
			handler = shed
		}
		ts := httptest.NewServer(handler)
		defer func() {
			ts.Close()
			sv.Close()
		}()
		res, err := runRemote(ts.URL, problem, opts, "abort", 8, 0)
		if err != nil {
			t.Fatalf("runRemote(throttle=%v): %v", throttle, err)
		}
		if throttle && shed.shed.Load() == 0 {
			t.Fatal("throttled run saw no sheds; the test exercised nothing")
		}
		return res
	}

	clean := run(false)
	shedded := run(true)

	if len(clean.Evaluations) != opts.MaxEvals || len(shedded.Evaluations) != opts.MaxEvals {
		t.Fatalf("evaluations: clean %d, shedded %d, want %d each (lost tells?)",
			len(clean.Evaluations), len(shedded.Evaluations), opts.MaxEvals)
	}
	for i := range clean.Evaluations {
		a, b := clean.Evaluations[i], shedded.Evaluations[i]
		if len(a.X) != len(b.X) {
			t.Fatalf("eval %d: dimension mismatch", i)
		}
		for j := range a.X {
			if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
				t.Fatalf("eval %d x[%d]: %v vs %v — shed run diverged", i, j, a.X[j], b.X[j])
			}
		}
		if math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("eval %d y: %v vs %v — shed run diverged", i, a.Y, b.Y)
		}
	}
	if math.Float64bits(clean.BestY) != math.Float64bits(shedded.BestY) {
		t.Fatalf("best: clean %v, shedded %v", clean.BestY, shedded.BestY)
	}
}
