package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"easybo/internal/loadgen"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// TestShedEquivalence is the harness's correctness half: a daemon driven
// hard past -max-inflight-evals sheds 429s, and the worker fleet absorbs
// every one of them as backoff — the final optimization history is
// bitwise-identical to an unthrottled daemon's. Sessions use
// InitPoints == MaxEvals, so every proposal comes from the seeded
// Latin-hypercube design and the set of evaluated points is independent of
// the order concurrent workers get through the admission gate (records are
// compared sorted by proposal id).
func TestShedEquivalence(t *testing.T) {
	const (
		nSessions = 2
		nWorkers  = 4 // per session, all racing the admission gate
		budget    = 32
		dim       = 3
	)

	run := func(t *testing.T, opts serve.ServerOptions) (map[string][]serve.Record, int64) {
		t.Helper()
		st, err := wal.OpenMem(wal.NewMemFS(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
		sv := serve.NewServerWith(opts)
		if _, err := sv.Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer sv.Close()
		ts := httptest.NewServer(sv)
		defer ts.Close()

		cl := &loadgen.Client{
			HC:         ts.Client(),
			Base:       ts.URL,
			MaxRetries: 500, // sheds are the point; never give up on one
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		lo, hi := make([]float64, dim), make([]float64, dim)
		for i := range hi {
			hi[i] = 1
		}
		ids := []string{"shed-a", "shed-b"}
		for i, id := range ids {
			body := map[string]any{
				"id": id, "lo": lo, "hi": hi,
				"init_points": budget, "max_evals": budget,
				"seed": int64(100 + i), "surrogate": "features",
				"fit_iters": 4, "refit_every": 4,
			}
			if _, _, err := cl.Call(ctx, http.MethodPost, "/sessions", body, nil); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}

		var totalShed int64
		shedc := make(chan int64, nSessions*nWorkers)
		errc := make(chan error, nSessions*nWorkers)
		for _, id := range ids {
			for w := 0; w < nWorkers; w++ {
				go func(id string) {
					var shed int64
					defer func() { shedc <- shed }()
					base := "/sessions/" + id
					for {
						var a struct {
							Status     string    `json:"status"`
							ProposalID int       `json:"proposal_id"`
							X          []float64 `json:"x"`
						}
						s, _, err := cl.Call(ctx, http.MethodPost, base+"/ask", map[string]any{}, &a)
						shed += s
						if err != nil {
							errc <- err
							return
						}
						switch a.Status {
						case "done":
							errc <- nil
							return
						case "wait":
							time.Sleep(time.Millisecond)
							continue
						}
						var y float64
						for _, v := range a.X {
							y += -(v - 0.3) * (v - 0.3)
						}
						s, _, err = cl.Call(ctx, http.MethodPost, base+"/tell",
							map[string]any{"proposal_id": a.ProposalID, "y": y}, nil)
						shed += s
						if err != nil {
							errc <- err
							return
						}
					}
				}(id)
			}
		}
		for i := 0; i < nSessions*nWorkers; i++ {
			if err := <-errc; err != nil {
				t.Fatalf("worker: %v", err)
			}
			totalShed += <-shedc
		}

		recs := make(map[string][]serve.Record, nSessions)
		for _, id := range ids {
			var st serve.Status
			if _, _, err := cl.Call(ctx, http.MethodGet, "/sessions/"+id, nil, &st); err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if !st.Done {
				t.Fatalf("session %s not done: %+v", id, st)
			}
			if len(st.Records) != budget {
				t.Fatalf("session %s: %d records, want %d (lost tells?)", id, len(st.Records), budget)
			}
			sort.Slice(st.Records, func(a, b int) bool { return st.Records[a].ID < st.Records[b].ID })
			recs[id] = st.Records
		}
		return recs, totalShed
	}

	ref, refShed := run(t, serve.ServerOptions{})
	if refShed != 0 {
		t.Fatalf("unthrottled reference shed %d asks", refShed)
	}
	// MaxInflightEvals far below the worker count: the gate is hit
	// constantly and every worker takes 429s on the way to the same result.
	got, shed := run(t, serve.ServerOptions{MaxInflightEvals: 2})
	if shed == 0 {
		t.Fatal("throttled run absorbed no 429 sheds; the admission gate never engaged")
	}
	t.Logf("throttled run absorbed %d sheds", shed)

	for id, want := range ref {
		have := got[id]
		for i := range want {
			if want[i].ID != have[i].ID {
				t.Fatalf("%s record %d: id %d vs %d", id, i, have[i].ID, want[i].ID)
			}
			for d := range want[i].X {
				if math.Float64bits(want[i].X[d]) != math.Float64bits(have[i].X[d]) {
					t.Fatalf("%s record id %d: X[%d] diverged: %v vs %v", id, want[i].ID, d, have[i].X[d], want[i].X[d])
				}
			}
			if math.Float64bits(want[i].Y) != math.Float64bits(have[i].Y) {
				t.Fatalf("%s record id %d: Y diverged: %v vs %v", id, want[i].ID, have[i].Y, want[i].Y)
			}
		}
	}
}
