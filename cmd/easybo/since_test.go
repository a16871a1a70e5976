package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"easybo"
	"easybo/internal/serve"
)

// TestClientReadsStatusPastItsOwnHistory: every status read the client
// makes — the orphan scan on a wait, the final incumbent — carries the
// ?since= cursor, so it completes against a session whose bare status is
// larger than the client's 1 MiB response cap. The stub answers a bare
// GET /sessions/{id} as a daemon holding a very long session would.
func TestClientReadsStatusPastItsOwnHistory(t *testing.T) {
	sv := serve.NewServerWith(serve.ServerOptions{})
	if _, err := sv.Recover(); err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	var bare, paged atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if parts := serve.SplitPath(r.URL.Path); r.Method == http.MethodGet && len(parts) == 2 && parts[0] == "sessions" {
			if !r.URL.Query().Has("since") {
				bare.Add(1)
				fmt.Fprintf(w, `{"id":%q,"best_x":[0.5,0.5],"best_y":0,"name":%q}`, parts[1], strings.Repeat("x", 1<<20))
				return
			}
			paged.Add(1)
		}
		sv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	problem := easybo.Problem{
		Name: "since",
		Lo:   []float64{0, 0}, Hi: []float64{1, 1},
		Objective: func(x []float64) float64 {
			return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
		},
	}
	opts := easybo.Options{InitPoints: 6, MaxEvals: 12, Seed: 17, Workers: 2, FitIters: 4, RefitEvery: 4}
	res, err := runRemote(ts.URL, problem, opts, "abort", 8, 0)
	if err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	if len(res.Evaluations) != opts.MaxEvals || len(res.BestX) != 2 {
		t.Fatalf("%d evaluations, best_x %v", len(res.Evaluations), res.BestX)
	}
	if bare.Load() != 0 || paged.Load() == 0 {
		t.Fatalf("%d bare status reads, %d with ?since=; want none bare", bare.Load(), paged.Load())
	}
}
