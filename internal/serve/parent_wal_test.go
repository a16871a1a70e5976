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

// Three WAL data directories are pinned under testdata/, each two sessions,
// one per surrogate backend, stopped mid-run with proposals in flight.
//
// testdata/parent_wal was written by the commit before the acquisition
// maximizer was batched (PR 12, f90de40). Its asks carry no proposer
// generation — generation 0, the simplex refinement — and through PR 22
// recovery re-derived every one of them bit for bit, which is how batched
// prediction, the lockstep simplex and the factorization rewrites proved
// they changed no result. testdata/gen1_wal was written by the commit that
// introduced generation 1 (the gradient refinement) and was the bitwise pin
// until generation 2 (the 20·d sweep). A build of a later generation cannot
// derive the points of either, and must not quarantine them: it recovers the
// sessions with the recorded proposals taken as they are, says so, and
// continues.
//
// testdata/gen2_wal was written by the commit that introduced generation 2
// and is the bitwise pin from there on: recovery re-derives its asks bit for
// bit, so accepting it is the cross-version proof that a later change under
// an ask changed no result. Regenerating a fixture at a later commit would
// only prove that commit agrees with itself.
var (
	writeParentWAL = flag.Bool("write-parent-wal", false,
		"rewrite testdata/parent_wal from the current code (meaningful only at the commit the fixture is named for)")
	writeGen2WAL = flag.Bool("write-gen2-wal", false,
		"rewrite testdata/gen2_wal from the current code (meaningful only at a generation-2 commit, and only deliberately)")
)

const (
	parentWALDir = "testdata/parent_wal"
	gen1WALDir   = "testdata/gen1_wal"
	gen2WALDir   = "testdata/gen2_wal"
)

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

// inFlight is how many proposals a fixture session had outstanding when its
// daemon stopped: run keeps three out, and stops on a tell.
const inFlight = 2

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

// writeFixture runs the fixture's sessions on a fresh daemon each and stops
// them mid-run.
func writeFixture(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, s := range parentSessions {
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

// TestRecoverAcceptsParentCommitWAL: the generation-0 log under a later
// generation's build, recovered by a full replay (it has no checkpoints).
func TestRecoverAcceptsParentCommitWAL(t *testing.T) {
	if *writeParentWAL {
		writeFixture(t, parentWALDir)
	}
	recoverOlderGeneration(t, parentWALDir, 0, serve.RecoverFull)
}

// TestRecoverGen1WAL: the generation-1 log under a later generation's build,
// recovered from its checkpoints.
func TestRecoverGen1WAL(t *testing.T) {
	recoverOlderGeneration(t, gen1WALDir, 1, serve.RecoverCheckpoint)
}

// recoverOlderGeneration is the cross-version proof for a log of proposer
// generation gen, older than this build's. No quarantine; every model-based
// ask counted as of generation gen by the offline audit (which therefore does
// not pass) and, in a full replay, on the report and the daemon's totals — a
// checkpoint replay counts only the asks it puts back after the cut; every
// acknowledged tell present, bit for bit; and the run the recovered session
// continues stays in the box and ends on its budget.
func recoverOlderGeneration(t *testing.T, fixture string, gen int, mode string) {
	for _, s := range parentSessions {
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
			unverified := rec.AsksUnverified > 0
			if mode == serve.RecoverFull {
				unverified = rec.AsksUnverified == modelAsks
			}
			if rec.Mode != mode || !unverified || rec.UnverifiedGen != gen || rec.AsksRederived != 0 {
				t.Fatalf("recovered as %+v, want a %s replay with model-based asks unverified (generation %d) and none re-derived", rec, mode, gen)
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
				if r.ID != i || math.Float64bits(r.Y) != math.Float64bits(parentObjective(r.X)) {
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

// TestRecoverGen2WAL is the bitwise cross-version pin (see the fixtures'
// comment): the generation-2 log recovers from its checkpoints with every
// derived ask equal to the record, nothing unverified, the audit passing from
// the first event, and finishes exactly as a run that never stopped.
func TestRecoverGen2WAL(t *testing.T) {
	if *writeGen2WAL {
		writeFixture(t, gen2WALDir)
	}
	for _, s := range parentSessions {
		t.Run(s.id, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, dir, filepath.Join(gen2WALDir, s.id))
			if rec := audit(t, dir); rec.AsksUnverified != 0 || rec.AsksRederived != s.tells+inFlight {
				t.Fatalf("audit: %+v, want all %d asks re-derived", rec, s.tells+inFlight)
			}
			d := startDaemon(t, dir, s.policy)
			defer d.stop()
			if len(d.report.Quarantined) != 0 || !reflect.DeepEqual(d.report.Recovered, []string{s.id}) {
				t.Fatalf("recovery of the generation-2 log: recovered %v, quarantined %v",
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
