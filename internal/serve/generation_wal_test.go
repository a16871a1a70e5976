package serve_test

import (
	"context"
	"flag"
	"io/fs"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"easybo/internal/loadgen"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// Two WAL data directories are pinned under testdata/, each two sessions,
// one per surrogate backend, stopped mid-run with proposals in flight.
//
// testdata/gen3_wal was written by the commit that introduced proposer
// generation 3 (the Schur-complement hallucination) and is the bitwise pin
// from there on: recovery re-derives its asks bit for bit, so accepting it is
// the cross-version proof that a later change under an ask changed no result.
// Regenerating it at a later commit would only prove that commit agrees with
// itself.
//
// testdata/gen2_wal and testdata/gen1_wal were written by the commits that
// introduced generations 2 (the 20·d sweep) and 1, and each was the bitwise
// pin until the next generation. A build of a later generation cannot derive
// their points, and must not quarantine them: it recovers the sessions with
// the recorded proposals taken as they are, says so, and continues. (The log
// of generation 0 that was pinned the same way is in the history.)
var writeGen3WAL = flag.Bool("write-gen3-wal", false,
	"rewrite testdata/gen3_wal from the current code (meaningful only at a generation-3 commit, and only deliberately)")

const (
	gen1WALDir = "testdata/gen1_wal"
	gen2WALDir = "testdata/gen2_wal"
	gen3WALDir = "testdata/gen3_wal"
)

// pinSessions are the fixture's sessions. 3-D box, 6 design points, then
// model-based asks with three proposals kept outstanding, so every ask past
// the design hallucinates busy points before it maximizes.
var pinSessions = []struct {
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

// inFlight is how many proposals a fixture session had outstanding when its
// daemon stopped: run keeps three out, and stops on a tell.
const inFlight = 2

func pinObjective(x []float64) float64 {
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
			serve.Tell{ProposalID: &a.ProposalID, Y: pinObjective(a.X)}, nil)
		tells--
	}
	d.call("GET", "/sessions/"+id, nil, &st)
	return st
}

// writeFixture runs the fixture's sessions on a fresh daemon each and stops
// them mid-run.
func writeFixture(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, s := range pinSessions {
		d := startDaemon(t, filepath.Join(dir, s.id), s.policy)
		d.call("POST", "/sessions", createRequest{s.id, s.cfg}, nil)
		d.run(s.id, s.tells)
		d.stop()
		// The store's lock file is process state, not part of the record.
		if err := os.Remove(filepath.Join(dir, s.id, "sessions", s.id, "LOCK")); err != nil {
			t.Fatal(err)
		}
	}
}

// audit is easybod -verify on one session directory.
func audit(t *testing.T, dir string) serve.SessionRecovery {
	t.Helper()
	sessions, err := wal.ReadAll(dir)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("reading %s: %d sessions, %v", dir, len(sessions), err)
	}
	rec, err := serve.Audit(sessions[0])
	if err != nil {
		t.Fatalf("audit of %s: %v", dir, err)
	}
	return rec
}

// TestRecoverGen1WAL: the generation-1 log under a later generation's build,
// recovered from its checkpoints.
func TestRecoverGen1WAL(t *testing.T) {
	recoverOlderGeneration(t, gen1WALDir, 1)
}

// TestRecoverGen2WAL: the generation-2 log under a later generation's build,
// recovered from its checkpoints.
func TestRecoverGen2WAL(t *testing.T) {
	recoverOlderGeneration(t, gen2WALDir, 2)
}

// recoverOlderGeneration is the cross-version proof for a log of proposer
// generation gen, older than this build's. No quarantine; every model-based
// ask counted as of generation gen by the offline audit (which therefore does
// not pass), and the asks the checkpoint replay puts back after the cut on
// the report and the daemon's totals; every acknowledged tell present, bit
// for bit; and the run the recovered session continues stays in the box and
// ends on its budget.
func recoverOlderGeneration(t *testing.T, fixture string, gen int) {
	for _, s := range pinSessions {
		t.Run(s.id, func(t *testing.T) {
			// Recovery takes the store's lock and may prune; work on a copy.
			dir := t.TempDir()
			copyTree(t, dir, filepath.Join(fixture, s.id))
			modelAsks := s.tells + inFlight - s.cfg.InitPoints
			if rec := audit(t, dir); rec.AsksUnverified != modelAsks || rec.UnverifiedGen != gen || rec.AsksRederived != 0 {
				t.Fatalf("audit: %+v, the log holds %d model-based asks of generation %d", rec, modelAsks, gen)
			}
			d := startDaemon(t, dir, s.policy)
			defer d.stop()
			if len(d.report.Quarantined) != 0 || !reflect.DeepEqual(d.report.Recovered, []string{s.id}) {
				t.Fatalf("recovery of a generation-%d log: recovered %v, quarantined %v",
					gen, d.report.Recovered, d.report.Quarantined)
			}
			rec := d.report.Sessions[0]
			if rec.Mode != serve.RecoverCheckpoint || rec.AsksUnverified == 0 || rec.UnverifiedGen != gen || rec.AsksRederived != 0 {
				t.Fatalf("recovered as %+v, want a checkpoint replay with model-based asks unverified (generation %d) and none re-derived", rec, gen)
			}
			if tot := d.sv.RecoveryTotals(); tot.AsksUnverified != int64(rec.AsksUnverified) {
				t.Fatalf("recovery totals %+v, want %d asks unverified", tot, rec.AsksUnverified)
			}
			var mid serve.Status
			d.call("GET", "/sessions/"+s.id, nil, &mid)
			if len(mid.Records) != s.tells || len(mid.Outstanding) != inFlight {
				t.Fatalf("recovered with %d records and %d proposals in flight, the log acknowledged %d tells with %d in flight",
					len(mid.Records), len(mid.Outstanding), s.tells, inFlight)
			}
			for i, r := range mid.Records {
				if r.ID != i || math.Float64bits(r.Y) != math.Float64bits(pinObjective(r.X)) {
					t.Fatalf("record %d came back as %+v", i, r)
				}
			}
			got := d.run(s.id, -1)
			if !got.Done || len(got.Records) != s.cfg.MaxEvals || got.Launched != s.cfg.MaxEvals {
				t.Fatalf("recovered session stopped at %d records of %d launched, done=%v", len(got.Records), got.Launched, got.Done)
			}
			if !reflect.DeepEqual(got.Records[:s.tells], mid.Records) {
				t.Fatal("continuing the run rewrote recovered records")
			}
			for _, r := range got.Records {
				for j, v := range r.X {
					if !(v >= s.cfg.Lo[j] && v <= s.cfg.Hi[j]) {
						t.Fatalf("record %d left the box: %v", r.ID, r.X)
					}
				}
			}
		})
	}
}

// TestRecoverGen3WAL is the bitwise cross-version pin (see the fixtures'
// comment): the generation-3 log recovers from its checkpoints with every
// derived ask equal to the record, nothing unverified, the audit passing from
// the first event, and finishes exactly as a run that never stopped.
func TestRecoverGen3WAL(t *testing.T) {
	if *writeGen3WAL {
		writeFixture(t, gen3WALDir)
	}
	for _, s := range pinSessions {
		t.Run(s.id, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, dir, filepath.Join(gen3WALDir, s.id))
			if rec := audit(t, dir); rec.AsksUnverified != 0 || rec.AsksRederived != s.tells+inFlight {
				t.Fatalf("audit: %+v, want all %d asks re-derived", rec, s.tells+inFlight)
			}
			d := startDaemon(t, dir, s.policy)
			defer d.stop()
			if len(d.report.Quarantined) != 0 || !reflect.DeepEqual(d.report.Recovered, []string{s.id}) {
				t.Fatalf("recovery of the generation-3 log: recovered %v, quarantined %v",
					d.report.Recovered, d.report.Quarantined)
			}
			if rec := d.report.Sessions[0]; rec.Mode != serve.RecoverCheckpoint || rec.AsksUnverified != 0 || rec.AsksRederived == 0 {
				t.Fatalf("recovered as %+v, want a checkpoint replay with asks re-derived and none unverified", rec)
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
