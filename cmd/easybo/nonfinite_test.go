package main

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"easybo"
	"easybo/internal/serve"
)

// TestRemoteInfIsAToldFailure: an objective that returns ±Inf against a
// daemon is a failed evaluation that is told, so the session's policy
// decides — skip finishes the run with one failure, abort ends it with the
// daemon's abort — instead of the tell dying in the JSON encoder. Either
// way the client deletes the session it created.
func TestRemoteInfIsAToldFailure(t *testing.T) {
	sv := serve.NewServer()
	if _, err := sv.Recover(); err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	problem := func() easybo.Problem {
		calls := 0
		return easybo.Problem{
			Name: "inf",
			Lo:   []float64{0, 0}, Hi: []float64{1, 1},
			Objective: func(x []float64) float64 {
				if calls++; calls == 3 {
					return math.Inf(1)
				}
				return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
			},
		}
	}
	opts := easybo.Options{InitPoints: 6, MaxEvals: 10, Seed: 5, Workers: 1, FitIters: 4, RefitEvery: 4}

	t.Run("skip", func(t *testing.T) {
		res, err := runRemote(ts.URL, problem(), opts, "skip", 2, 0)
		if err != nil {
			t.Errorf("run: %v", err)
		} else if len(res.Failed) != 1 || len(res.Evaluations) != opts.MaxEvals-1 || math.IsInf(res.BestY, 0) {
			t.Errorf("%d failed, %d evaluations, best %v; want 1, %d and a finite best",
				len(res.Failed), len(res.Evaluations), res.BestY, opts.MaxEvals-1)
		}
		if n := sv.SessionCount(); n != 0 {
			t.Errorf("%d sessions left in the daemon", n)
		}
	})
	t.Run("abort", func(t *testing.T) {
		before := sv.SessionCount()
		_, err := runRemote(ts.URL, problem(), opts, "abort", 2, 0)
		if err == nil || !strings.Contains(err.Error(), "aborted by daemon") {
			t.Errorf("run: %v, want the daemon's abort", err)
		}
		if n := sv.SessionCount(); n != before {
			t.Errorf("%d sessions left in the daemon", n-before)
		}
	})
}
