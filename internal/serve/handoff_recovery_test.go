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
// tampered log, the BeginHandoff/InstallSnapshot/CompleteHandoff protocol
// across separate stores, failover adoption over a shared store, and the
// introspection getters the cluster layer polls.

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
	st := NewMemStoreCompacting(6)
	const id = "rec-1"

	c1, _, done1 := newTestServerWith(t, ServerOptions{Store: st})
	var created createResponse
	if code := c1.post("/sessions", hoSpec(id, 7), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(c1, id, 6)
	var before Status
	c1.get("/sessions/"+id, &before)
	done1() // process "dies"; the MemStore survives like a data dir would

	sv2 := NewServerWith(ServerOptions{Store: st})
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

// TestRecoverQuarantinesTamperedLog corrupts one recorded ask in the store
// and requires recovery to quarantine the session — replay verification
// must refuse to resurrect a history that no longer matches what the RNG
// rederives — while HTTP traffic to it answers 409.
func TestRecoverQuarantinesTamperedLog(t *testing.T) {
	st := NewMemStore()
	const id = "quar-1"

	c1, _, done1 := newTestServerWith(t, ServerOptions{Store: st})
	var created createResponse
	if code := c1.post("/sessions", hoSpec(id, 11), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(c1, id, 4)
	done1()

	// The store must see the session before it is tampered with.
	ps, err := st.LoadSession(id)
	if err != nil || ps.ID != id {
		t.Fatalf("store load: %v %+v", err, ps)
	}
	_ = ps.Log.Close()

	// Flip one coordinate of a recorded proposal in place.
	st.mu.Lock()
	ms := st.m[id]
	st.mu.Unlock()
	ms.mu.Lock()
	tampered := false
	for i := range ms.events {
		if ms.events[i].Kind == "ask" && len(ms.events[i].X) > 0 {
			ms.events[i].X[0] += 0.25
			tampered = true
			break
		}
	}
	ms.mu.Unlock()
	if !tampered {
		t.Fatal("no ask event found to tamper with")
	}

	sv2 := NewServerWith(ServerOptions{Store: st})
	defer sv2.Close()
	rep, err := sv2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Recovered) != 0 {
		t.Fatalf("tampered session recovered: %v", rep.Recovered)
	}
	if reason, ok := rep.Quarantined[id]; !ok || reason == "" {
		t.Fatalf("expected %s quarantined, got %+v", id, rep.Quarantined)
	}
	if sv2.Has(id) {
		t.Fatal("quarantined session is live")
	}
	if p := sv2.Progress(); p.Quarantined != 1 || p.Replayed != 0 {
		t.Fatalf("progress %+v", p)
	}

	ts2 := httptest.NewServer(sv2)
	defer ts2.Close()
	c2 := &client{t: t, base: ts2.URL, hc: ts2.Client()}
	if code := c2.get("/sessions/"+id, nil); code != http.StatusConflict {
		t.Fatalf("quarantined session status code %d, want 409", code)
	}

	// Failover adoption must refuse it for the same reason.
	if _, err := sv2.Adopt(id, "node-x", nil); !errors.Is(err, ErrSessionQuarantined) {
		t.Fatalf("adopt of quarantined session: %v", err)
	}
}

// TestHandoffAcrossSeparateStores walks the full separate-store transfer:
// fence + snapshot on the source (which immediately sheds its own traffic
// with 412), install-by-replay on the target, retirement of the source
// copy, and an aborted transfer resuming at a fresh epoch.
func TestHandoffAcrossSeparateStores(t *testing.T) {
	cA, svA, doneA := newTestServer(t)
	defer doneA()
	cB, svB, doneB := newTestServer(t)
	defer doneB()

	const id = "ho-1"
	var created createResponse
	if code := cA.post("/sessions", hoSpec(id, 21), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 5)
	var before Status
	cA.get("/sessions/"+id, &before)

	snap, err := svA.BeginHandoff(id, "node-b")
	if err != nil {
		t.Fatalf("begin handoff: %v", err)
	}
	if snap.ID != id || snap.Epoch != 2 || snap.Owner != "node-b" {
		t.Fatalf("snapshot id=%q epoch=%d owner=%q", snap.ID, snap.Epoch, snap.Owner)
	}
	// The fence is the last word the source speaks: asks now fail 412.
	if code := cA.post("/sessions/"+id+"/ask", map[string]any{}, nil); code != http.StatusPreconditionFailed {
		t.Fatalf("ask on fenced session: status %d, want 412", code)
	}
	// A second transfer of an already-fenced session is refused.
	if _, err := svA.BeginHandoff(id, "node-c"); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("double handoff: %v", err)
	}

	stB, err := svB.InstallSnapshot(snap)
	if err != nil {
		t.Fatalf("install snapshot: %v", err)
	}
	requireSameRecords(t, before.Records, stB.Records)
	if !svB.Has(id) {
		t.Fatal("target does not hold the session")
	}
	if ep, err := svB.Epoch(id); err != nil || ep != 2 {
		t.Fatalf("target epoch %d (%v), want 2", ep, err)
	}
	if err := svA.CompleteHandoff(id, true); err != nil {
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
	if _, err := svA.BeginHandoff(id2, "node-b"); err != nil {
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

// TestHandoffAcrossGenerations ships one snapshot to two targets: as this
// build wrote it, and with the proposer generation struck from every ask, the
// way a node still running the previous build would have written it (a
// rolling upgrade hands sessions from old nodes to new ones). Both installs
// must succeed in the same recovery mode — from the snapshot's last
// checkpoint — the second with its tail asks counted unverified where the
// first re-derived them; and because the struck points are in truth this
// build's, the two targets must then continue to the same history, which
// shows the reissued asks left surrogate and rng where derivation does.
func TestHandoffAcrossGenerations(t *testing.T) {
	cA, svA, doneA := newTestServer(t)
	defer doneA()
	const id = "ho-gen"
	if code := cA.post("/sessions", hoSpec(id, 23), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 7) // four design points, then model-based asks past a checkpoint
	snap, err := svA.BeginHandoff(id, "node-b")
	if err != nil {
		t.Fatalf("begin handoff: %v", err)
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
// guard, and the revived original owner's recovery leaves the moved
// session alone (HeldElsewhere).
func TestAdoptFailoverFromSharedStore(t *testing.T) {
	shared := NewMemStore()
	const id = "fo-1"

	cA, _, doneA := newTestServerWith(t, ServerOptions{Store: shared, NodeID: "node-a"})
	var created createResponse
	if code := cA.post("/sessions", hoSpec(id, 31), &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	askTellN(cA, id, 5)
	var before Status
	cA.get("/sessions/"+id, &before)
	doneA() // node-a dies; the shared store keeps the session

	svB := NewServerWith(ServerOptions{Store: shared, NodeID: "node-b"})
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
	svC := NewServerWith(ServerOptions{Store: shared, NodeID: "node-c"})
	defer svC.Close()
	var held *HeldElsewhereError
	_, err = svC.Adopt(id, "node-c", func(owner string) bool { return false })
	if !errors.As(err, &held) || held.Owner != "node-b" {
		t.Fatalf("guarded adopt: err=%v", err)
	}

	// The revived original owner must not fork the moved session.
	svA2 := NewServerWith(ServerOptions{Store: shared, NodeID: "node-a"})
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

	// The adopter serves it to completion.
	tsB := httptest.NewServer(svB)
	defer tsB.Close()
	cB := &client{t: t, base: tsB.URL, hc: tsB.Client()}
	final := finishSession(cB, id)
	if !final.Done || len(final.Records) != 10 {
		t.Fatalf("adopted session did not finish: done=%v records=%d", final.Done, len(final.Records))
	}
}

// TestServerIntrospectionGetters pins the small surface the cluster layer
// and cmd/easybod poll: readiness, session enumeration, epochs on unknown
// sessions, the exported admission gate, and the shed response shape.
func TestServerIntrospectionGetters(t *testing.T) {
	sv := NewServer()
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
	svQ := NewServerWith(ServerOptions{QueueDepth: 1})
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
