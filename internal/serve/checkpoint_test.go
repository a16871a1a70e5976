package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"easybo/internal/core"
	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// call puts one request through the handler in-process.
func call(t testing.TB, sv *serve.Server, method, path string, body, out any) {
	t.Helper()
	var rd bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&rd).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	sv.ServeHTTP(w, httptest.NewRequest(method, path, &rd))
	if w.Code != http.StatusOK && w.Code != http.StatusCreated {
		t.Fatalf("%s %s: HTTP %d: %s", method, path, w.Code, w.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
	}
}

// ready returns a recovered server over st.
func ready(t testing.TB, st serve.Store) (*serve.Server, serve.RecoveryReport) {
	t.Helper()
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	rep, err := sv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return sv, rep
}

// schedule is how a reference run's workers behave: busy proposals are kept
// outstanding and told back out of order, proposal hold is sat on until
// nothing else is left (so that it is older than every later checkpoint), and
// fail marks the proposals whose evaluation crashes.
type schedule struct {
	busy, hold int
	fail       func(pid int) bool
}

func objective2(x []float64) float64 {
	return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2)
}

// runReference drives one session to the end of its budget on a fresh
// in-memory daemon and returns its full event log and final status.
func runReference(t *testing.T, id string, cfg serve.SessionConfig, sc schedule) ([]serve.Event, serve.Status) {
	t.Helper()
	sv, _ := ready(t, serve.NewMemDisk(0).Open())
	defer sv.Close()
	call(t, sv, "POST", "/sessions", createRequest{id, cfg}, nil)
	var open []serve.Ask
	for step := 0; ; step++ {
		for len(open) < sc.busy {
			var a serve.Ask
			call(t, sv, "POST", "/sessions/"+id+"/ask", map[string]any{}, &a)
			if a.Status != serve.AskOK {
				break // budget spent, until a resubmitted failure reopens it
			}
			open = append(open, a)
		}
		if len(open) == 0 {
			break
		}
		j := step % len(open)
		if open[j].ProposalID == sc.hold && len(open) > 1 {
			j = (j + 1) % len(open)
		}
		a := open[j]
		open = append(open[:j], open[j+1:]...)
		tell := serve.Tell{ProposalID: &a.ProposalID, Y: objective2(a.X)}
		if sc.fail != nil && sc.fail(a.ProposalID) {
			tell = serve.Tell{ProposalID: &a.ProposalID, Error: "simulator crashed"}
		}
		var ack serve.TellAck
		call(t, sv, "POST", "/sessions/"+id+"/tell", tell, &ack)
		if ack.Done && ack.Pending == 0 {
			break
		}
	}
	var snap serve.Snapshot
	call(t, sv, "GET", "/sessions/"+id+"/snapshot", nil, &snap)
	var st serve.Status
	call(t, sv, "GET", "/sessions/"+id, nil, &st)
	if !st.Done {
		t.Fatalf("reference run did not finish: %d/%d completed, %d pending", st.Completed, cfg.MaxEvals, st.Pending)
	}
	return snap.Events, st
}

// persist writes a session whose log is events into st, as a daemon that
// crashed right after logging the last of them would have left it.
func persist(t testing.TB, st serve.Store, id string, cfg serve.SessionConfig, events []serve.Event) {
	t.Helper()
	log, err := st.Begin(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := log.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// finish replays the rest of a reference run against a live session: every
// recorded tell is delivered, and every ask must come back as the recorded
// proposal, bit for bit.
func finish(t *testing.T, sv *serve.Server, id string, rest []serve.Event) {
	t.Helper()
	for i, ev := range rest {
		switch ev.Kind {
		case "ask":
			var a serve.Ask
			call(t, sv, "POST", "/sessions/"+id+"/ask", map[string]any{}, &a)
			if a.Status != serve.AskOK || a.ProposalID != ev.ID || !reflect.DeepEqual(a.X, ev.X) {
				t.Fatalf("ask %d after recovery: got %s id=%d x=%v, the uninterrupted run issued id=%d x=%v",
					i, a.Status, a.ProposalID, a.X, ev.ID, ev.X)
			}
		case "tell":
			pid := ev.ID
			call(t, sv, "POST", "/sessions/"+id+"/tell", serve.Tell{ProposalID: &pid, Y: ev.Y, Error: ev.Err}, nil)
		}
	}
}

func lastCkpt(events []serve.Event) int {
	for i := len(events) - 1; i > 0; i-- {
		if events[i].Ckpt != nil {
			return i
		}
	}
	return 0
}

// TestRecoverAtEveryCutMatchesUninterrupted crashes a run after each of its
// events in turn: the log so far is recovered — from its last checkpoint
// whenever it has one — and finished, and the stitched run must be the
// uninterrupted one bit for bit: the proposals, the records, and the rng
// positions, checkpoints and hash chain logged from there on. On the exact
// GP (a checkpoint every refit_every observations), on the feature-space
// backend, and on auto across its escalation; through the WAL in memory
// and on disk; with failed evaluations skipped and resubmitted; and with one
// proposal outstanding from before every checkpoint to the end.
//
// The mixed cases are logs an upgrade leaves behind: the asks below gen0Below
// carry no proposer generation, as if an older build had derived them, the
// rest this build's. Recovery must put the former back as recorded — counted
// as unverified, never re-derived, never a reason to fall back — and still
// leave surrogate and rng exactly where the live run had them, because the
// later asks, of its own generation, are derived and compared as ever and
// the run it continues must be the uninterrupted one. (The relabelled points
// are this build's own, which is what lets the test know the right answer;
// a log an older build really wrote is testdata/gen2_wal.)
func TestRecoverAtEveryCutMatchesUninterrupted(t *testing.T) {
	box := serve.SessionConfig{Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 5, FitIters: 8, RefitEvery: 4}
	with := func(f func(*serve.SessionConfig)) serve.SessionConfig {
		c := box
		f(&c)
		return c
	}
	stores := map[string]func(t *testing.T) serve.Store{
		"mem": func(*testing.T) serve.Store { return serve.NewMemDisk(0).Open() },
		"wal": func(t *testing.T) serve.Store {
			st, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.PolicyOff})
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	cases := []struct {
		name  string
		store string
		cfg   serve.SessionConfig
		sc    schedule
		ckpts int // checkpoints the run must at least contain
		// gen0Below relabels the asks with a smaller proposal id as
		// generation 0 (mixed cases; they schedule no failures, so a
		// proposal id past the design is a model-based ask).
		gen0Below int
	}{
		{"exact/skip", "wal", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.MaxEvals, c.Seed, c.Failure = "exact", 20, 31, "skip"
		}), schedule{busy: 3, hold: 6, fail: func(pid int) bool { return pid == 2 || pid == 11 }}, 3, 0},
		{"exact/resubmit", "mem", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.MaxEvals, c.Seed, c.Failure = "exact", 18, 32, "resubmit"
		}), schedule{busy: 3, hold: 7, fail: func(pid int) bool { return pid == 3 || pid == 9 }}, 3, 0},
		{"features", "mem", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.MaxEvals, c.Seed = "features", 16, 33
		}), schedule{busy: 2, hold: -1}, 1, 0},
		{"auto-escalating", "wal", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.EscalateAt, c.MaxEvals, c.Seed, c.Failure = "auto", 11, 20, 34, "skip"
		}), schedule{busy: 3, hold: 8, fail: func(pid int) bool { return pid == 12 }}, 3, 0},
		{"exact/mixed", "wal", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.MaxEvals, c.Seed = "exact", 20, 35
		}), schedule{busy: 3, hold: 6}, 3, 13},
		{"features/mixed", "mem", with(func(c *serve.SessionConfig) {
			c.Surrogate, c.MaxEvals, c.Seed = "features", 16, 36
		}), schedule{busy: 2, hold: -1}, 1, 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			events, want := runReference(t, "cut", tc.cfg, tc.sc)
			live := append([]serve.Event(nil), events...) // as this build logs them
			n := 0
			for i, ev := range events {
				if ev.Kind == "ask" && ev.Gen != core.ProposerGeneration {
					t.Fatalf("ask %d logged with generation %d, this build is %d", ev.ID, ev.Gen, core.ProposerGeneration)
				}
				if ev.Kind == "ask" && ev.ID < tc.gen0Below {
					events[i].Gen = 0
				}
				if ev.Ckpt != nil {
					n++
				}
				// Positions count from the end of the design; every ask from
				// the first model-based one on has drawn something.
				if ev.Kind == "ask" && n > 0 && ev.Rng == 0 {
					t.Fatalf("ask %d logged without an rng position", ev.ID)
				}
			}
			if n < tc.ckpts {
				t.Fatalf("reference run logged %d checkpoints, want at least %d", n, tc.ckpts)
			}
			if tc.name == "auto-escalating" && want.SurrogateActive != "features" {
				t.Fatalf("reference run never escalated (active backend %q)", want.SurrogateActive)
			}
			heldAcrossCkpt := false
			stride := 1
			if raceEnabled && tc.cfg.Surrogate != "exact" {
				stride = 4
			}
			for k := 1; k < len(events); k += stride {
				st := stores[tc.store](t)
				persist(t, st, "cut", want.Config, events[:k])
				sv, rep := ready(t, st)
				if len(rep.Quarantined) != 0 || len(rep.Sessions) != 1 {
					t.Fatalf("cut %d: recovery report %+v", k, rep)
				}
				rec, cut := rep.Sessions[0], lastCkpt(events[:k])
				wantMode := serve.RecoverFull
				if cut > 0 {
					wantMode = serve.RecoverCheckpoint
				}
				if rec.Mode != wantMode || rec.Cut != cut || rec.Events != k || rec.TailEvents != k-cut {
					t.Fatalf("cut %d: recovered as %+v, want mode %s at cut %d", k, rec, wantMode, cut)
				}
				if cut > 0 && rec.AsksRederived > tc.sc.busy+1 {
					t.Fatalf("cut %d: %d asks re-derived from a checkpoint with at most %d proposals in flight", k, rec.AsksRederived, tc.sc.busy)
				}
				// Every model-based ask of the other generation that the
				// replay took with the model live, and none besides.
				unverified := 0
				for _, ev := range events[cut:k] {
					if ev.Kind == "ask" && ev.Gen != core.ProposerGeneration && ev.ID >= tc.cfg.InitPoints {
						unverified++
					}
				}
				if rec.AsksUnverified != unverified || (unverified > 0 && rec.UnverifiedGen != 0) {
					t.Fatalf("cut %d: %d asks reported unverified (generation %d), the log holds %d of generation 0 past the cut",
						k, rec.AsksUnverified, rec.UnverifiedGen, unverified)
				}
				var mid serve.Status
				call(t, sv, "GET", "/sessions/cut", nil, &mid)
				for _, p := range mid.Outstanding {
					if cut > 0 && p.ProposalID == tc.sc.hold && p.ProposalID < events[cut].ID {
						heldAcrossCkpt = true
					}
				}
				finish(t, sv, "cut", events[k:])
				var got serve.Status
				call(t, sv, "GET", "/sessions/cut", nil, &got)
				var snap serve.Snapshot
				call(t, sv, "GET", "/sessions/cut/snapshot", nil, &snap)
				sv.Close()
				if !reflect.DeepEqual(got.Records, want.Records) || !reflect.DeepEqual(got.Failed, want.Failed) {
					t.Fatalf("cut %d: stitched history differs from the uninterrupted run", k)
				}
				// What was recovered keeps its stamps; what is logged from
				// there on is this build's.
				if stitched := append(events[:k:k], live[k:]...); !reflect.DeepEqual(snap.Events, stitched) {
					t.Fatalf("cut %d: the events logged after recovery (positions, checkpoints, chain) differ from the uninterrupted run's", k)
				}
			}
			if tc.sc.hold >= 0 && !heldAcrossCkpt {
				t.Fatal("no cut had the held proposal outstanding from before the checkpoint it resumed at")
			}
		})
	}
}

// TestRecoveryRederivesTheTailNotTheLog pins O(tail) as a count: however long
// the session, a recovery re-derives the proposals in flight and the last
// ask, where it used to re-derive every ask in the log. The shape is the
// benchmark's serve-model session (20 design points, the feature-space
// backend, four workers).
func TestRecoveryRederivesTheTailNotTheLog(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a 480-observation session on one goroutine")
	}
	cfg := serve.SessionConfig{
		Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}, InitPoints: 20, Seed: 1, FitIters: 8, Surrogate: "features",
	}
	obj := func(x []float64) float64 { return -(x[0]-0.4)*(x[0]-0.4) - x[1]*x[2] }
	disk := serve.NewMemDisk(0)
	sv, _ := ready(t, disk.Open())
	call(t, sv, "POST", "/sessions", createRequest{"tail", cfg}, nil)
	var open []serve.Ask
	told := 0
	rederived := map[int]int{}
	for _, upTo := range []int{120, 480} {
		for told < upTo {
			for len(open) < 4 {
				var a serve.Ask
				call(t, sv, "POST", "/sessions/tail/ask", map[string]any{}, &a)
				open = append(open, a)
			}
			a := open[0]
			open = open[1:]
			call(t, sv, "POST", "/sessions/tail/tell", serve.Tell{ProposalID: &a.ProposalID, Y: obj(a.X)}, nil)
			told++
		}
		var before serve.Status
		call(t, sv, "GET", "/sessions/tail", nil, &before)
		sv.Close() // the disk keeps the log
		var rep serve.RecoveryReport
		sv, rep = ready(t, disk.Open())
		if len(rep.Sessions) != 1 || rep.Sessions[0].Mode != serve.RecoverCheckpoint {
			t.Fatalf("at %d observations: recovery report %+v", upTo, rep)
		}
		rec := rep.Sessions[0]
		asks := upTo + len(before.Outstanding)
		t.Logf("%d observations: %d events, cut at %d, %d of %d asks re-derived", upTo, rec.Events, rec.Cut, rec.AsksRederived, asks)
		rederived[upTo] = rec.AsksRederived
		if tot := sv.RecoveryTotals(); tot.Checkpoint != 1 || tot.AsksRederived != int64(rec.AsksRederived) {
			t.Fatalf("totals %+v do not match the report %+v", tot, rec)
		}
		var after serve.Status
		call(t, sv, "GET", "/sessions/tail", nil, &after)
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("at %d observations: status changed across recovery", upTo)
		}
	}
	sv.Close()
	if rederived[120] > 5 || rederived[120] != rederived[480] {
		t.Fatalf("asks re-derived: %v, want at most 5 and the same at both lengths", rederived)
	}
}

// strip returns events without their rng positions and checkpoints: the log
// as the commit before they existed would have written it.
func strip(events []serve.Event) []serve.Event {
	out := append([]serve.Event(nil), events...)
	for i := range out {
		out[i].Rng, out[i].Ckpt = 0, nil
	}
	return out
}

// tamperedLog is a reference run stopped mid-way, proposals in flight, with a
// checkpoint to resume at, plus the means to edit a copy of it.
type tamperedLog struct {
	cfg    serve.SessionConfig
	full   []serve.Event // the whole reference run
	events []serve.Event // the part a crashed daemon left
	cut    int           // index of its last checkpoint
}

func newTamperedLog(t *testing.T, cfg serve.SessionConfig) tamperedLog {
	t.Helper()
	full, _ := runReference(t, "tamper", cfg, schedule{busy: 3, hold: -1})
	l := tamperedLog{cfg: cfg, full: full, events: full[:len(full)-7]}
	if l.cut = lastCkpt(l.events); l.cut == 0 {
		t.Fatal("no checkpoint in the reference log")
	}
	return l
}

// edit applies f to a deep copy of the log.
func (l tamperedLog) edit(f func(ev []serve.Event)) []serve.Event {
	out := append([]serve.Event(nil), l.events...)
	for i := range out {
		out[i].X = append([]float64(nil), out[i].X...)
		if ck := out[i].Ckpt; ck != nil {
			c := *ck
			c.Theta = append([]float64(nil), ck.Theta...)
			out[i].Ckpt = &c
		}
	}
	f(out)
	return out
}

// recover boots a daemon on a store holding events.
func (l tamperedLog) recover(t *testing.T, events []serve.Event) (serve.RecoveryReport, *serve.Server) {
	t.Helper()
	st := serve.NewMemDisk(0).Open()
	persist(t, st, "tamper", l.cfg, events)
	sv, rep := ready(t, st)
	return rep, sv
}

// mustFallBack recovers a log whose last checkpoint was edited by f: the
// session must be served, from a full replay, with the report saying why and
// naming the stale checkpoint; it must finish like the uninterrupted run; and
// the audit, unlike recovery, must hold the checkpoint against the log.
func (l tamperedLog) mustFallBack(t *testing.T, f func(ck *serve.Checkpoint)) {
	t.Helper()
	bad := l.edit(func(ev []serve.Event) { f(ev[l.cut].Ckpt) })
	rep, sv := l.recover(t, bad)
	defer sv.Close()
	if len(rep.Quarantined) != 0 || len(rep.Sessions) != 1 {
		t.Fatalf("report %+v", rep)
	}
	rec := rep.Sessions[0]
	if rec.Mode != serve.RecoverFallback || rec.Reason == "" || rec.Stale == "" || rec.Cut != 0 {
		t.Fatalf("recovered as %+v, want a fallback that names the stale checkpoint", rec)
	}
	if tot := sv.RecoveryTotals(); tot.Fallback != 1 || tot.Checkpoint != 0 {
		t.Fatalf("totals %+v", tot)
	}
	finish(t, sv, "tamper", l.full[len(l.events):])
	if _, err := serve.Audit(serve.PersistedSession{ID: "tamper", Config: l.cfg, Events: bad}); err == nil {
		t.Fatal("audit passed a log with a stale checkpoint")
	}
}

// TestCheckpointTampering: what recovery does with a log that is not the one
// the session wrote. The chain catches an edit before the checkpoint, a
// re-derived ask catches a checkpoint that restores the wrong state, and
// either way the verdict is the full replay's: a session that is sound from
// its first event is served (and reported as a fallback), one that is not is
// quarantined for the reason it always was.
func TestCheckpointTampering(t *testing.T) {
	base := serve.SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 5, MaxEvals: 18, Seed: 41, FitIters: 8, RefitEvery: 4,
	}
	exact := base
	exact.Surrogate = "exact"
	l := newTamperedLog(t, exact)

	t.Run("untouched", func(t *testing.T) {
		rep, sv := l.recover(t, l.events)
		defer sv.Close()
		if len(rep.Sessions) != 1 || rep.Sessions[0].Mode != serve.RecoverCheckpoint || rep.Sessions[0].Cut != l.cut {
			t.Fatalf("report %+v", rep)
		}
		rec, err := serve.Audit(serve.PersistedSession{ID: "tamper", Config: l.cfg, Events: l.events})
		if err != nil || rec.Cut != 0 || rec.AsksRederived == 0 {
			t.Fatalf("audit: %+v, %v", rec, err)
		}
	})
	t.Run("stripped", func(t *testing.T) {
		// A log without positions and checkpoints is a parent-written log.
		rep, sv := l.recover(t, strip(l.events))
		defer sv.Close()
		if len(rep.Sessions) != 1 || rep.Sessions[0].Mode != serve.RecoverFull || rep.Sessions[0].Stale != "" {
			t.Fatalf("report %+v", rep)
		}
		finish(t, sv, "tamper", l.full[len(l.events):])
	})
	t.Run("prefix observation rewritten", func(t *testing.T) {
		// In the WAL this is a record rewritten with a valid CRC. The chain
		// no longer matches, the full replay runs, and it diverges where the
		// edited value first reaches a proposal — today's quarantine reason.
		bad := l.edit(func(ev []serve.Event) {
			for i := range ev[:l.cut] {
				if ev[i].Kind == "tell" {
					ev[i].Y += 0.5
					return
				}
			}
		})
		rep, sv := l.recover(t, bad)
		sv.Close()
		want, sv := l.recover(t, strip(bad))
		sv.Close()
		if reason := rep.Quarantined["tamper"]; reason == "" || reason != want.Quarantined["tamper"] {
			t.Fatalf("quarantine reason %q, the same log without checkpoints gives %q", reason, want.Quarantined["tamper"])
		}
	})
	t.Run("theta wrong", func(t *testing.T) {
		l.mustFallBack(t, func(ck *serve.Checkpoint) { ck.Theta[0] += 0.25 })
	})
	t.Run("theta of the wrong length", func(t *testing.T) {
		l.mustFallBack(t, func(ck *serve.Checkpoint) { ck.Theta = ck.Theta[:1] })
	})
	t.Run("chain truncated", func(t *testing.T) {
		l.mustFallBack(t, func(ck *serve.Checkpoint) { ck.Chain = ck.Chain[:7] })
	})
	t.Run("rng position out of range", func(t *testing.T) {
		l.mustFallBack(t, func(ck *serve.Checkpoint) { ck.Rng = 1 << 62 })
	})
	t.Run("rng position wrong", func(t *testing.T) {
		// Where the fit at the checkpoint draws — here the escalation, which
		// draws the feature basis — the position is part of the state.
		auto := base
		auto.Surrogate, auto.EscalateAt = "auto", 9
		la := newTamperedLog(t, auto)
		if ck := la.events[la.cut].Ckpt; ck.Backend != "exact" || ck.N < auto.EscalateAt {
			t.Fatalf("the log's last checkpoint is not the escalation: %+v", ck)
		}
		la.mustFallBack(t, func(ck *serve.Checkpoint) { ck.Rng += 3 })
	})
}

// TestSnapshotHyperparametersAreVerified: the theta and log-noise a snapshot
// carries are compared with what replay computed, so an edited summary is
// refused like an edited event.
func TestSnapshotHyperparametersAreVerified(t *testing.T) {
	cfg := serve.SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 5, MaxEvals: 14, Seed: 43, FitIters: 8, Surrogate: "exact",
	}
	sv, _ := ready(t, serve.NewMemDisk(0).Open())
	defer sv.Close()
	call(t, sv, "POST", "/sessions", createRequest{"hyper", cfg}, nil)
	for i := 0; i < 9; i++ {
		var a serve.Ask
		call(t, sv, "POST", "/sessions/hyper/ask", map[string]any{}, &a)
		call(t, sv, "POST", "/sessions/hyper/tell", serve.Tell{ProposalID: &a.ProposalID, Y: objective2(a.X)}, nil)
	}
	var snap serve.Snapshot
	call(t, sv, "GET", "/sessions/hyper/snapshot", nil, &snap)
	if snap.LogNoise == nil || len(snap.Theta) == 0 {
		t.Fatalf("snapshot carries no hyperparameters: %+v", snap)
	}
	restore := func(id string, f func(*serve.Snapshot)) int {
		s := snap
		s.ID = id
		s.Theta = append([]float64(nil), snap.Theta...)
		f(&s)
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(s); err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		sv.ServeHTTP(w, httptest.NewRequest("POST", "/sessions/restore", &body))
		return w.Code
	}
	if code := restore("hyper-ok", func(*serve.Snapshot) {}); code != http.StatusCreated {
		t.Fatalf("restoring the untouched snapshot: HTTP %d", code)
	}
	if code := restore("hyper-theta", func(s *serve.Snapshot) { s.Theta[0] += 1e-9 }); code != http.StatusUnprocessableEntity {
		t.Fatalf("snapshot with an edited theta: HTTP %d, want 422", code)
	}
	if code := restore("hyper-noise", func(s *serve.Snapshot) { v := *s.LogNoise + 1e-9; s.LogNoise = &v }); code != http.StatusUnprocessableEntity {
		t.Fatalf("snapshot with an edited log-noise: HTTP %d, want 422", code)
	}
	if code := restore("hyper-absent", func(s *serve.Snapshot) { s.Theta, s.LogNoise = nil, nil }); code != http.StatusCreated {
		t.Fatalf("snapshot without hyperparameters (nothing to compare): HTTP %d", code)
	}
}

// BenchmarkRecover is one boot recovery of the repo benchmark's serve-model
// session (Hartmann-6 box, 20 design points and 100 model-based round trips
// with four proposals in flight, feature-space surrogate), from its last
// checkpoint and — the same log with positions and checkpoints stripped, as
// the commit before them wrote it — in full.
func BenchmarkRecover(b *testing.B) {
	cfg := serve.SessionConfig{
		Lo: make([]float64, 6), Hi: []float64{1, 1, 1, 1, 1, 1}, InitPoints: 20, Seed: 1, Surrogate: "features",
	}
	t := testing.TB(b)
	sv, _ := ready(t, serve.NewMemDisk(0).Open())
	call(t, sv, "POST", "/sessions", createRequest{"bench", cfg}, nil)
	var open []serve.Ask
	for told := 0; told < 120; told++ {
		for len(open) < 4 {
			var a serve.Ask
			call(t, sv, "POST", "/sessions/bench/ask", map[string]any{}, &a)
			open = append(open, a)
		}
		a := open[0]
		open = open[1:]
		y := 0.0
		for i, v := range a.X {
			y -= (v - 0.1*float64(i+1)) * (v - 0.1*float64(i+1))
		}
		call(t, sv, "POST", "/sessions/bench/tell", serve.Tell{ProposalID: &a.ProposalID, Y: y}, nil)
	}
	var snap serve.Snapshot
	call(t, sv, "GET", "/sessions/bench/snapshot", nil, &snap)
	sv.Close()
	for name, events := range map[string][]serve.Event{"checkpoint": snap.Events, "full": strip(snap.Events)} {
		b.Run(name, func(b *testing.B) {
			disk := serve.NewMemDisk(0)
			st := disk.Open()
			persist(t, st, "bench", snap.Config, events)
			st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv := serve.NewServerWith(serve.ServerOptions{Store: disk.Open()})
				rep, err := sv.Recover()
				if err != nil || len(rep.Sessions) != 1 || rep.Sessions[0].Mode != name {
					b.Fatalf("recovery: %v, %+v", err, rep)
				}
				b.ReportMetric(float64(rep.Sessions[0].AsksRederived), "asks-rederived")
				b.StopTimer()
				sv.Close()
				b.StartTimer()
			}
		})
	}
}
