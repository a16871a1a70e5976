package serve_test

import (
	"context"
	"flag"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"easybo/internal/loadgen"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// testdata/parent_wal is a WAL data directory written by the commit before
// the acquisition maximizer was batched (PR 12, f90de40): two sessions, one
// per surrogate backend, each stopped mid-run with proposals in flight.
// Recovery re-derives every recorded ask bit for bit, so accepting these
// logs is the cross-version proof that batched prediction and the lockstep
// simplex changed no result. Regenerating them with -write-parent-wal at a
// later commit would only prove that commit agrees with itself.
var writeParentWAL = flag.Bool("write-parent-wal", false,
	"rewrite testdata/parent_wal from the current code (meaningful only at the commit the fixture is named for)")

const parentWALDir = "testdata/parent_wal"

// parentSessions are the fixture's sessions. 3-D box, 6 design points, then
// model-based asks with three proposals kept outstanding, so every ask past
// the design hallucinates busy points before it maximizes.
var parentSessions = []struct {
	id     string
	cfg    serve.SessionConfig
	tells  int // tells delivered before the daemon stopped
	policy wal.Options
}{
	{"pin-exact", serve.SessionConfig{
		Lo: []float64{0, -1, 2}, Hi: []float64{1, 1, 5},
		InitPoints: 6, MaxEvals: 26, Seed: 5, FitIters: 10, RefitEvery: 4,
		Surrogate: "exact",
	}, 18, wal.Options{Fsync: wal.PolicyAlways, CompactEvery: 12}},
	{"pin-features", serve.SessionConfig{
		Lo: []float64{0, -1, 2}, Hi: []float64{1, 1, 5},
		InitPoints: 6, MaxEvals: 20, Seed: 6, FitIters: 10,
		Surrogate: "features",
	}, 12, wal.Options{Fsync: wal.PolicyAlways, CompactEvery: -1}},
}

func parentObjective(x []float64) float64 {
	return -(x[0]-0.3)*(x[0]-0.3) - 0.5*(x[1]+0.2)*(x[1]+0.2) - 0.1*(x[2]-3)*(x[2]-3)
}

// daemon is one serve.Server over a wal.Store on dir, recovered and served.
type daemon struct {
	t      *testing.T
	sv     *serve.Server
	hs     *httptest.Server
	cl     *loadgen.Client
	report serve.RecoveryReport
}

func startDaemon(t *testing.T, dir string, opts wal.Options) *daemon {
	t.Helper()
	st, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	report, err := sv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(sv)
	return &daemon{t: t, sv: sv, hs: hs, cl: &loadgen.Client{HC: hs.Client(), Base: hs.URL}, report: report}
}

func (d *daemon) stop() {
	d.hs.Close()
	d.sv.Close()
}

func (d *daemon) call(method, path string, body, out any) {
	d.t.Helper()
	if _, _, err := d.cl.Call(context.Background(), method, path, body, out); err != nil {
		d.t.Fatalf("%s %s: %v", method, path, err)
	}
}

// run keeps three proposals outstanding — adopting any a previous daemon left
// in flight — and tells them oldest first until tells have been delivered
// (tells < 0: until the session is done).
func (d *daemon) run(id string, tells int) serve.Status {
	d.t.Helper()
	var st serve.Status
	d.call("GET", "/sessions/"+id, nil, &st)
	open := append([]serve.Proposal(nil), st.Outstanding...)
	for done := false; tells != 0; {
		for !done && len(open) < 3 {
			var a serve.Ask
			d.call("POST", "/sessions/"+id+"/ask", map[string]any{}, &a)
			if a.Status != serve.AskOK {
				done = true
				break
			}
			open = append(open, serve.Proposal{ProposalID: a.ProposalID, X: a.X})
		}
		if len(open) == 0 {
			break
		}
		a := open[0]
		open = open[1:]
		d.call("POST", "/sessions/"+id+"/tell",
			serve.Tell{ProposalID: &a.ProposalID, Y: parentObjective(a.X)}, nil)
		tells--
	}
	d.call("GET", "/sessions/"+id, nil, &st)
	return st
}

func TestRecoverAcceptsParentCommitWAL(t *testing.T) {
	if *writeParentWAL {
		if err := os.RemoveAll(parentWALDir); err != nil {
			t.Fatal(err)
		}
		for _, s := range parentSessions {
			d := startDaemon(t, filepath.Join(parentWALDir, s.id), s.policy)
			d.call("POST", "/sessions", createRequest{s.id, s.cfg}, nil)
			d.run(s.id, s.tells)
			d.stop()
		}
	}

	for _, s := range parentSessions {
		t.Run(s.id, func(t *testing.T) {
			// Recovery takes the store's lock and may prune; work on a copy.
			dir := t.TempDir()
			copyTree(t, dir, filepath.Join(parentWALDir, s.id))
			d := startDaemon(t, dir, s.policy)
			defer d.stop()
			if len(d.report.Quarantined) != 0 || !reflect.DeepEqual(d.report.Recovered, []string{s.id}) {
				t.Fatalf("recovery of the parent commit's log: recovered %v, quarantined %v",
					d.report.Recovered, d.report.Quarantined)
			}
			got := d.run(s.id, -1)

			// The recovered session must also finish exactly as one that
			// never stopped.
			ref := startDaemon(t, t.TempDir(), s.policy)
			defer ref.stop()
			ref.call("POST", "/sessions", createRequest{s.id, s.cfg}, nil)
			want := ref.run(s.id, -1)
			if !got.Done || len(got.Records) != s.cfg.MaxEvals {
				t.Fatalf("recovered session stopped at %d records, done=%v", len(got.Records), got.Done)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("recovered run diverged from an uninterrupted one:\n got  %+v\n want %+v", got.Records, want.Records)
			}
		})
	}
}

// createRequest is the POST /sessions body: the config plus an id.
type createRequest struct {
	ID string `json:"id"`
	serve.SessionConfig
}

func copyTree(t *testing.T, dst, src string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
