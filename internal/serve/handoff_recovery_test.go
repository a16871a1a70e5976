package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"easybo/internal/core"
)

// These tests exercise the recovery and ownership-transfer surface from
// inside the package, driving the same entry points internal/cluster and
// cmd/easybod use: boot recovery over a surviving store, quarantine of a
// tampered log, the BeginHandoff/Adopt/CompleteHandoff protocol over one
// store, failover adoption from it, a snapshot restored across proposer
// generations, and the introspection getters the cluster layer polls.

func hoSpec(id string, seed int64) createRequest {
	return createRequest{
		ID: id,
		SessionConfig: SessionConfig{
			Name:       id,
			Lo:         []float64{0, 0},
			Hi:         []float64{1, 1},
			InitPoints: 4, MaxEvals: 10, Seed: seed,
			FitIters: 4, RefitEvery: 4,
		},
	}
}

func hoObjective(x []float64) float64 {
	return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
}

// askTellN drives n sequential ask/tell round trips; sequential driving
// keeps pending at 0 so a handoff or crash between calls is clean.
func askTellN(c *client, id string, n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		var a Ask
		if code := c.post("/sessions/"+id+"/ask", map[string]any{}, &a); code != http.StatusOK {
			c.t.Fatalf("ask %s #%d: status %d", id, i, code)
		}
		if a.Status != AskOK {
			c.t.Fatalf("ask %s #%d: disposition %q, want ok", id, i, a.Status)
		}
		tell := Tell{ProposalID: &a.ProposalID, Y: hoObjective(a.X)}
		if code := c.post("/sessions/"+id+"/tell", tell, &TellAck{}); code != http.StatusOK {
			c.t.Fatalf("tell %s #%d: status %d", id, i, code)
		}
	}
}

// finishSession asks and tells until the session reports done.
func finishSession(c *client, id string) Status {
	c.t.Helper()
	for i := 0; i < 1000; i++ {
		var a Ask
		if code := c.post("/sessions/"+id+"/ask", map[string]any{}, &a); code != http.StatusOK {
			c.t.Fatalf("ask %s: status %d", id, code)
		}
		if a.Status == AskDone {
			var st Status
			if code := c.get("/sessions/"+id, &st); code != http.StatusOK {
				c.t.Fatalf("status %s: %d", id, code)
			}
			return st
		}
		if a.Status != AskOK {
			c.t.Fatalf("ask %s: disposition %q", id, a.Status)
		}
		tell := Tell{ProposalID: &a.ProposalID, Y: hoObjective(a.X)}
		if code := c.post("/sessions/"+id+"/tell", tell, &TellAck{}); code != http.StatusOK {
			c.t.Fatalf("tell %s: status %d", id, code)
		}
	}
	c.t.Fatalf("session %s never finished", id)
	return Status{}
}

func requireSameRecords(t *testing.T, want, got []Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.ID != g.ID || math.Float64bits(w.Y) != math.Float64bits(g.Y) || len(w.X) != len(g.X) {
			t.Fatalf("record %d diverged: got %+v want %+v", i, g, w)
		}
		for j := range w.X {
			if math.Float64bits(w.X[j]) != math.Float64bits(g.X[j]) {
				t.Fatalf("record %d x[%d] diverged: got %x want %x",
					i, j, math.Float64bits(g.X[j]), math.Float64bits(w.X[j]))
			}
		}
	}
}

// TestRecoverResumesFromSurvivingStore reboots a daemon over the store a
// previous incarnation wrote, requires the replayed history to be bitwise
// identical, and finishes the session on the recovered instance. The store
// compacts every few events so the snapshot-base + log-tail replay arm runs
// too (not just config + full log).
func TestRecoverResumesFromSurvivingStore(t *testing.T) {
	disk := NewMemDisk(6)
	const id = "rec-1"

	c1, _, done1 := newTestServerWith(t, ServerOptions{Store: disk.Open()})
	var created createResponse
	if code := c1.post("/sessions", hoSpec(id, 7), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(c1, id, 6)
	var before Status
	c1.get("/sessions/"+id, &before)
	done1() // process "dies"; its data directory survives

	sv2 := NewServerWith(ServerOptions{Store: disk.Open()})
	defer sv2.Close()
	ts2 := httptest.NewServer(sv2)
	defer ts2.Close()
	c2 := &client{t: t, base: ts2.URL, hc: ts2.Client()}

	// Until Recover runs, session routes shed with 503 and the progress
	// probe reports not ready.
	if sv2.Ready() {
		t.Fatal("server ready before Recover")
	}
	if code := c2.get("/sessions/"+id, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery status code %d, want 503", code)
	}

	rep, err := sv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != id {
		t.Fatalf("recovered %v, want [%s]", rep.Recovered, id)
	}
	if len(rep.Quarantined) != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("unexpected quarantine/skip: %+v", rep)
	}
	p := sv2.Progress()
	if !p.Ready || p.Total != 1 || p.Replayed != 1 || p.Quarantined != 0 {
		t.Fatalf("progress %+v", p)
	}

	var after Status
	if code := c2.get("/sessions/"+id, &after); code != http.StatusOK {
		t.Fatalf("post-recovery status code %d", code)
	}
	requireSameRecords(t, before.Records, after.Records)

	final := finishSession(c2, id)
	if !final.Done || len(final.Records) != 10 {
		t.Fatalf("recovered session did not finish: done=%v records=%d", final.Done, len(final.Records))
	}
}

// TestHandoffOverOneStore walks the whole transfer between two servers over
// one store: the source's fence (after which it sheds its own traffic with
// 412), adoption by replay on the target, retirement of the source copy,
// and an aborted transfer resuming at a fresh epoch.
func TestHandoffOverOneStore(t *testing.T) {
	shared := NewMemDisk(0)
	cA, svA, doneA := newTestServerWith(t, ServerOptions{Store: shared.Open(), NodeID: "node-a"})
	defer doneA()
	cB, svB, doneB := newTestServerWith(t, ServerOptions{Store: shared.Open(), NodeID: "node-b"})
	defer doneB()

	const id = "ho-1"
	var created createResponse
	if code := cA.post("/sessions", hoSpec(id, 21), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 5)
	var before Status
	cA.get("/sessions/"+id, &before)

	if err := svA.BeginHandoff(id, "node-b"); err != nil {
		t.Fatalf("begin handoff: %v", err)
	}
	var fenced Snapshot
	cA.get("/sessions/"+id+"/snapshot", &fenced)
	if fenced.ID != id || fenced.Epoch != 2 || fenced.Owner != "node-b" {
		t.Fatalf("fenced source: id=%q epoch=%d owner=%q", fenced.ID, fenced.Epoch, fenced.Owner)
	}
	// The fence is the last word the source speaks: asks now fail 412.
	if code := cA.post("/sessions/"+id+"/ask", map[string]any{}, nil); code != http.StatusPreconditionFailed {
		t.Fatalf("ask on fenced session: status %d, want 412", code)
	}
	// A second transfer of an already-fenced session is refused.
	if err := svA.BeginHandoff(id, "node-c"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("double handoff: %v", err)
	}

	stB, err := svB.Adopt(id, "node-b", nil)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	requireSameRecords(t, before.Records, stB.Records)
	if !svB.Has(id) {
		t.Fatal("target does not hold the session")
	}
	// The source's fence is epoch 2; adopting fences once more, as every
	// Adopt does.
	if ep, err := svB.Epoch(id); err != nil || ep != 3 {
		t.Fatalf("target epoch %d (%v), want 3", ep, err)
	}
	if err := svA.CompleteHandoff(id); err != nil {
		t.Fatalf("complete handoff: %v", err)
	}
	if svA.Has(id) {
		t.Fatal("source still holds the session after completion")
	}
	if code := cA.get("/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("retired session status code %d, want 404", code)
	}

	// The target serves the adopted session to completion.
	final := finishSession(cB, id)
	if !final.Done || len(final.Records) != 10 {
		t.Fatalf("session did not finish on target: done=%v records=%d", final.Done, len(final.Records))
	}

	// Aborted transfer: the source re-fences to itself and resumes.
	const id2 = "ho-2"
	if code := cA.post("/sessions", hoSpec(id2, 22), &created); code != http.StatusCreated {
		t.Fatalf("create %s: status %d", id2, code)
	}
	askTellN(cA, id2, 2)
	if err := svA.BeginHandoff(id2, "node-b"); err != nil {
		t.Fatalf("begin handoff %s: %v", id2, err)
	}
	if err := svA.AbortHandoff(id2, "node-a"); err != nil {
		t.Fatalf("abort handoff: %v", err)
	}
	if ep, err := svA.Epoch(id2); err != nil || ep != 3 {
		t.Fatalf("post-abort epoch %d (%v), want 3", ep, err)
	}
	// Aborting an un-fenced session is a no-op.
	if err := svA.AbortHandoff(id2, "node-a"); err != nil {
		t.Fatalf("idle abort: %v", err)
	}
	askTellN(cA, id2, 1) // serving resumed
}

// TestHandoffAcrossGenerations restores one snapshot on two targets: as this
// build wrote it, and with the proposer generation struck from every ask, the
// way a node still running the previous build would have written it (a
// snapshot taken before an upgrade, restored after it). Both installs
// must succeed in the same recovery mode — from the snapshot's last
// checkpoint — the second with its tail asks counted unverified where the
// first re-derived them; and because the struck points are in truth this
// build's, the two targets must then continue to the same history, which
// shows the reissued asks left surrogate and rng where derivation does.
func TestHandoffAcrossGenerations(t *testing.T) {
	cA, _, doneA := newTestServer(t)
	defer doneA()
	const id = "ho-gen"
	if code := cA.post("/sessions", hoSpec(id, 23), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 7) // four design points, then model-based asks past a checkpoint
	var snap Snapshot
	if code := cA.get("/sessions/"+id+"/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	older := snap
	older.Events = make([]Event, len(snap.Events))
	for i, ev := range snap.Events {
		if ev.Kind == "ask" && ev.Gen != core.ProposerGeneration {
			t.Fatalf("ask %d logged with generation %d", ev.ID, ev.Gen)
		}
		ev.Gen = 0
		older.Events[i] = ev
	}

	var finals [2]Status
	var totals [2]RecoveryTotals
	for i, sn := range []Snapshot{snap, older} {
		c, sv, done := newTestServer(t)
		if _, err := sv.InstallSnapshot(sn); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
		totals[i] = sv.RecoveryTotals()
		finals[i] = finishSession(c, id)
		done()
	}
	own, old := totals[0], totals[1]
	if own.Checkpoint != 1 || own.AsksUnverified != 0 || own.AsksRederived == 0 {
		t.Fatalf("own-generation snapshot installed as %+v, want a checkpoint replay that re-derived its tail", own)
	}
	// All three model-based asks lie past the checkpoint the replay resumes
	// at: the first of them carries it.
	if old.Checkpoint != 1 || old.Fallback != 0 || old.AsksRederived != 0 || old.AsksUnverified != 3 {
		t.Fatalf("older-generation snapshot installed as %+v, want the same checkpoint replay with its 3 tail asks unverified", old)
	}
	if !finals[0].Done || len(finals[0].Records) != 10 {
		t.Fatalf("session did not finish on the target: done=%v records=%d", finals[0].Done, len(finals[0].Records))
	}
	requireSameRecords(t, finals[0].Records, finals[1].Records)
}

// TestAdoptFailoverFromSharedStore covers the owner-died path: a second
// node adopts the dead node's session from the shared store (replay +
// fence), a third node's adoption attempt is refused by the ownership
// guard, the revived original owner's recovery leaves the moved session
// alone (HeldElsewhere), and a handoff moves it home. Each node opens its
// own WAL on one directory, so the session's lock is contended as between
// processes.
func TestAdoptFailoverFromSharedStore(t *testing.T) {
	shared := NewMemDisk(0)
	const id = "fo-1"

	cA, _, doneA := newTestServerWith(t, ServerOptions{Store: shared.Open(), NodeID: "node-a"})
	var created createResponse
	if code := cA.post("/sessions", hoSpec(id, 31), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 5)
	var before Status
	cA.get("/sessions/"+id, &before)
	doneA() // node-a dies; the shared store keeps the session

	svB := NewServerWith(ServerOptions{Store: shared.Open(), NodeID: "node-b"})
	defer svB.Close()
	// node-b owns nothing by the ring: boot recovery skips everything.
	rep, err := svB.RecoverOwned(func(string) bool { return false })
	if err != nil {
		t.Fatalf("recover owned: %v", err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != id || len(rep.Recovered) != 0 {
		t.Fatalf("ownership-filtered recovery: %+v", rep)
	}

	stB, err := svB.Adopt(id, "node-b", nil)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	requireSameRecords(t, before.Records, stB.Records)
	if ep, err := svB.Epoch(id); err != nil || ep != 2 {
		t.Fatalf("adopted epoch %d (%v), want 2", ep, err)
	}
	if _, err := svB.Adopt(id, "node-b", nil); !errors.Is(err, ErrDuplicateSession) {
		t.Fatalf("double adopt: %v", err)
	}

	// A third node consults the guard: node-b's fence holds the session,
	// node-b is alive, so adoption is refused naming the holder.
	svC := NewServerWith(ServerOptions{Store: shared.Open(), NodeID: "node-c"})
	defer svC.Close()
	var held *HeldElsewhereError
	_, err = svC.Adopt(id, "node-c", func(owner string) bool { return false })
	if !errors.As(err, &held) || held.Owner != "node-b" {
		t.Fatalf("guarded adopt: err=%v", err)
	}

	// The revived original owner must not fork the moved session.
	svA2 := NewServerWith(ServerOptions{Store: shared.Open(), NodeID: "node-a"})
	defer svA2.Close()
	rep2, err := svA2.Recover()
	if err != nil {
		t.Fatalf("revived recover: %v", err)
	}
	if owner := rep2.HeldElsewhere[id]; owner != "node-b" {
		t.Fatalf("held-elsewhere %v, want %s -> node-b", rep2.HeldElsewhere, id)
	}
	if svA2.Has(id) {
		t.Fatal("revived owner resurrected a moved session")
	}

	// The heal hands it home over the shared store: node-b's fence lets go
	// of the session's lock, so node-a's adoption of the store's copy can
	// take it. Then node-a serves it to completion.
	if err := svB.BeginHandoff(id, "node-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := svA2.Adopt(id, "node-a", nil); err != nil {
		t.Fatalf("adopting a handed-off session: %v", err)
	}
	if err := svB.CompleteHandoff(id); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svA2)
	defer tsA.Close()
	final := finishSession(&client{t: t, base: tsA.URL, hc: tsA.Client()}, id)
	if !final.Done || len(final.Records) != 10 {
		t.Fatalf("handed-off session did not finish: done=%v records=%d", final.Done, len(final.Records))
	}
}

// TestServerIntrospectionGetters pins the small surface the cluster layer
// and cmd/easybod poll: readiness, session enumeration, epochs on unknown
// sessions, the exported admission gate, and the shed response shape.
func TestServerIntrospectionGetters(t *testing.T) {
	sv := NewServerWith(ServerOptions{Store: memStore()})
	defer sv.Close()
	if sv.Ready() {
		t.Fatal("ready before Recover")
	}
	if _, err := sv.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !sv.Ready() {
		t.Fatal("not ready after Recover")
	}
	if n := sv.SessionCount(); n != 0 {
		t.Fatalf("session count %d, want 0", n)
	}

	ts := httptest.NewServer(sv)
	defer ts.Close()
	c := &client{t: t, base: ts.URL, hc: ts.Client()}
	var created createResponse
	if code := c.post("/sessions", hoSpec("intro-1", 41), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if n := sv.SessionCount(); n != 1 {
		t.Fatalf("session count %d, want 1", n)
	}
	if ids := sv.SessionIDs(); len(ids) != 1 || ids[0] != "intro-1" {
		t.Fatalf("session ids %v", ids)
	}
	if !sv.Has("intro-1") || sv.Has("intro-2") {
		t.Fatal("Has mismatch")
	}
	if ep, err := sv.Epoch("intro-1"); err != nil || ep != 1 {
		t.Fatalf("epoch %d (%v), want 1", ep, err)
	}
	if _, err := sv.Epoch("intro-2"); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("epoch of unknown session: %v", err)
	}

	// Unlimited admission always admits.
	release, ok := sv.AdmitAsk()
	if !ok {
		t.Fatal("unlimited gate shed an ask")
	}
	release()

	// A queue depth of 1 sheds the second concurrent ask; release opens
	// the slot again.
	svQ := NewServerWith(ServerOptions{Store: memStore(), QueueDepth: 1})
	defer svQ.Close()
	rel1, ok := svQ.AdmitAsk()
	if !ok {
		t.Fatal("first ask shed")
	}
	if _, ok := svQ.AdmitAsk(); ok {
		t.Fatal("second concurrent ask admitted past queue depth 1")
	}
	rel1()
	rel2, ok := svQ.AdmitAsk()
	if !ok {
		t.Fatal("ask shed after release")
	}
	rel2()

	// The shed response the cluster relays: 429 with a constant
	// Retry-After.
	rec := httptest.NewRecorder()
	WriteOverloaded(rec)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
}
