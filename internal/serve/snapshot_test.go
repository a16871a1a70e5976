package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"easybo/internal/core"
	"easybo/internal/sched"
)

// virtualDriver runs a served session on a sched.VirtualExecutor worker
// pool: ask → launch, wait → tell, with position-dependent costs so
// completions come back out of order exactly like real simulators. The
// executor lives outside the daemon, so it can keep its in-flight work
// across a daemon "restart" (snapshot + restore into a fresh server).
type virtualDriver struct {
	t     *testing.T
	ex    *sched.VirtualExecutor
	pids  map[string][]int // coordinate key → pending proposal ids, FIFO
	tells int
}

func newVirtualDriver(t *testing.T, workers int, eval func([]float64) float64) *virtualDriver {
	return &virtualDriver{
		t: t,
		ex: sched.NewVirtual(workers, func(x []float64) (float64, float64) {
			return eval(x), 1 + 3*x[0] // variable simulated runtimes
		}),
		pids: map[string][]int{},
	}
}

func pointKey(x []float64) string { return fmt.Sprintf("%x", x) }

// fill asks the session for proposals until the pool is full or the session
// has nothing to suggest.
func (d *virtualDriver) fill(c *client, id string) {
	for d.ex.Idle() > 0 {
		var a Ask
		if code := c.post("/sessions/"+id+"/ask", map[string]any{}, &a); code != http.StatusOK {
			d.t.Fatalf("ask: status %d", code)
		}
		if a.Status != AskOK {
			return
		}
		k := pointKey(a.X)
		d.pids[k] = append(d.pids[k], a.ProposalID)
		if err := d.ex.Launch(a.X); err != nil {
			d.t.Fatal(err)
		}
	}
}

// step completes one virtual evaluation and tells it back. ok=false when
// the pool has drained.
func (d *virtualDriver) step(c *client, id string) (TellAck, bool) {
	r, ok := d.ex.Wait()
	if !ok {
		return TellAck{}, false
	}
	k := pointKey(r.X)
	q := d.pids[k]
	if len(q) == 0 {
		d.t.Fatalf("completion for unknown proposal %v", r.X)
	}
	pid := q[0]
	d.pids[k] = q[1:]
	tell := Tell{ProposalID: &pid, Y: r.Y}
	if math.IsNaN(r.Y) {
		tell.Y, tell.Error = 0, "virtual evaluation diverged"
	}
	d.tells++
	var ack TellAck
	if code := c.post("/sessions/"+id+"/tell", tell, &ack); code != http.StatusOK {
		d.t.Fatalf("tell: status %d", code)
	}
	return ack, true
}

// run drives until the session is done (or the optional tell budget is
// reached), keeping the pool as full as the session allows, and returns the
// session's status at that point.
func (d *virtualDriver) run(c *client, id string, maxTells int) Status {
	d.fill(c, id)
	for {
		ack, ok := d.step(c, id)
		if !ok || (ack.Done && ack.Pending == 0) || (maxTells > 0 && d.tells >= maxTells) {
			var st Status
			if code := c.get("/sessions/"+id, &st); code != http.StatusOK {
				d.t.Fatalf("status: %d", code)
			}
			return st
		}
		d.fill(c, id)
	}
}

// TestSnapshotRestoreContinuationMatchesUninterrupted saves a session
// mid-run, restores it into a fresh daemon, continues the run on the same
// virtual worker pool, and requires the stitched history to be bitwise
// identical to an uninterrupted run of the same session.
func TestSnapshotRestoreContinuationMatchesUninterrupted(t *testing.T) {
	eval := func(x []float64) float64 {
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]-0.2)*(x[1]-0.2)
	}
	cfg := createRequest{ID: "snap", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 6, MaxEvals: 24, Seed: 31,
		FitIters: 8, RefitEvery: 4, Failure: "skip",
	}}

	// Reference: one daemon, straight through.
	cRef, _, stopRef := newTestServer(t)
	defer stopRef()
	cRef.post("/sessions", cfg, &createResponse{})
	ref := newVirtualDriver(t, 3, eval).run(cRef, "snap", 0)
	if !ref.Done || len(ref.Records) == 0 {
		t.Fatalf("reference run incomplete: %+v", ref)
	}

	// Interrupted: same config, stop after 10 tells, snapshot, kill the
	// daemon, restore the snapshot into a brand-new daemon, and keep going
	// with the same still-loaded virtual worker pool.
	c1, _, stop1 := newTestServer(t)
	c1.post("/sessions", cfg, &createResponse{})
	d := newVirtualDriver(t, 3, eval)
	mid := d.run(c1, "snap", 10)
	if mid.Done {
		t.Fatal("interrupted too late; lower maxTells")
	}
	var snap Snapshot
	if code := c1.get("/sessions/snap/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	stop1() // daemon gone

	if snap.Pending == 0 || len(snap.Events) == 0 {
		t.Fatalf("snapshot looks empty: pending=%d events=%d", snap.Pending, len(snap.Events))
	}

	c2, _, stop2 := newTestServer(t)
	defer stop2()
	var restored Status
	if code := c2.post("/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("restore: status %d (%+v)", code, restored)
	}
	if restored.Observations != mid.Observations || restored.Pending != mid.Pending {
		t.Fatalf("restored state %+v != interrupted state %+v", restored, mid)
	}
	fin := d.run(c2, "snap", 0)
	if !fin.Done {
		t.Fatalf("continued run never finished: %+v", fin)
	}

	// The stitched history must be bitwise identical to the reference.
	if len(fin.Records) != len(ref.Records) {
		t.Fatalf("records: %d continued vs %d uninterrupted", len(fin.Records), len(ref.Records))
	}
	for i := range fin.Records {
		a, b := fin.Records[i], ref.Records[i]
		if !core.EqualPoints(a.X, b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("record %d diverged after restore:\n continued %+v\n reference %+v", i, a, b)
		}
	}
	if math.Float64bits(*fin.BestY) != math.Float64bits(*ref.BestY) {
		t.Fatalf("best diverged: %v vs %v", *fin.BestY, *ref.BestY)
	}

	// The snapshot's informational hyperparameters match what the restored
	// session recomputed.
	var snap2 Snapshot
	c2.get("/sessions/snap/snapshot", &snap2)
	if len(snap2.Events) <= len(snap.Events) {
		t.Fatalf("continued session logged no new events (%d vs %d)", len(snap2.Events), len(snap.Events))
	}
}

// TestSnapshotRejectsTamperedHistory: editing a recorded proposal must make
// the replay verification fail instead of silently continuing a different
// run.
func TestSnapshotRejectsTamperedHistory(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	cfg := createRequest{ID: "tamper", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 3, MaxEvals: 9, Seed: 2, FitIters: 8,
	}}
	c.post("/sessions", cfg, &createResponse{})
	d := newVirtualDriver(t, 2, func(x []float64) float64 { return -x[0] })
	d.run(c, "tamper", 4)
	var snap Snapshot
	c.get("/sessions/tamper/snapshot", &snap)

	tampered := snap
	tampered.Events = append([]Event(nil), snap.Events...)
	for i := range tampered.Events {
		if tampered.Events[i].Kind == "ask" {
			tampered.Events[i].X = append([]float64(nil), tampered.Events[i].X...)
			tampered.Events[i].X[0] += 1e-9
			break
		}
	}
	tampered.ID = "tamper2"
	var e errorResponse
	if code := c.post("/sessions/restore", tampered, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("tampered snapshot accepted: %d (%+v)", code, e)
	}

	// A tell event with the wrong dimension must be rejected at restore
	// time, not panic the actor goroutine later inside the GP fit.
	ragged := snap
	ragged.Events = append([]Event(nil), snap.Events...)
	for i := range ragged.Events {
		if ragged.Events[i].Kind == "tell" {
			ragged.Events[i].X = ragged.Events[i].X[:1]
			break
		}
	}
	ragged.ID = "tamper3"
	if code := c.post("/sessions/restore", ragged, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("ragged tell dimension accepted: %d (%+v)", code, e)
	}
}

// TestSnapshotRestoreAbortedSession: an aborted session's snapshot restores
// to the same dead state — abort reason intact, asks still refused — rather
// than resurrecting it live or failing the replay.
func TestSnapshotRestoreAbortedSession(t *testing.T) {
	c1, _, stop1 := newTestServer(t)
	cfg := createRequest{ID: "rip", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 3, MaxEvals: 9, Seed: 5, FitIters: 8,
	}}
	c1.post("/sessions", cfg, &createResponse{})
	var a Ask
	if code := c1.post("/sessions/rip/ask", map[string]any{}, &a); code != http.StatusOK {
		t.Fatalf("ask: status %d", code)
	}
	var dead TellAck
	code := c1.post("/sessions/rip/tell", Tell{ProposalID: &a.ProposalID, Error: "spice netlist error"}, &dead)
	if code != http.StatusOK || dead.Aborted == "" {
		t.Fatalf("abort tell: status %d, aborted %q", code, dead.Aborted)
	}
	var snap Snapshot
	if code := c1.get("/sessions/rip/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot of aborted session: status %d", code)
	}
	stop1()

	c2, _, stop2 := newTestServer(t)
	defer stop2()
	var restored Status
	if code := c2.post("/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("restore of aborted session: status %d (%+v)", code, restored)
	}
	if restored.Aborted != dead.Aborted {
		t.Fatalf("abort reason diverged: restored %q, original %q", restored.Aborted, dead.Aborted)
	}
	if code := c2.post("/sessions/rip/ask", map[string]any{}, nil); code == http.StatusOK {
		t.Fatal("restored aborted session accepted an ask")
	}
}

// TestSnapshotRejectsTamperedObservation: editing a told Y that fed a later
// proposal must desynchronize the replayed asks and be rejected with 422.
func TestSnapshotRejectsTamperedObservation(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	cfg := createRequest{ID: "obs", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 3, MaxEvals: 12, Seed: 8, FitIters: 8,
	}}
	c.post("/sessions", cfg, &createResponse{})
	d := newVirtualDriver(t, 2, func(x []float64) float64 { return -x[0] * x[1] })
	d.run(c, "obs", 6)
	var snap Snapshot
	c.get("/sessions/obs/snapshot", &snap)

	// Find a tell that precedes a post-init ask (so the tampered value
	// actually changes a downstream suggestion).
	tampered := snap
	tampered.Events = append([]Event(nil), snap.Events...)
	lastAsk := -1
	for i, ev := range tampered.Events {
		if ev.Kind == "ask" {
			lastAsk = i
		}
	}
	tellIdx := -1
	for i, ev := range tampered.Events {
		if ev.Kind == "tell" && ev.Err == "" && i < lastAsk {
			tellIdx = i
		}
	}
	if tellIdx < 0 {
		t.Fatal("no tell precedes the last ask; drive longer")
	}
	tampered.Events[tellIdx].Y += 0.5
	tampered.ID = "obs2"
	var e errorResponse
	if code := c.post("/sessions/restore", tampered, &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("tampered observation accepted: %d (%+v)", code, e)
	}
}

// TestSnapshotRoundTripsSurrogateBackend drives a session configured to
// auto-escalate onto the feature-space backend mid-run, snapshots it after
// the escalation, restores it into a fresh daemon, and requires the
// continued history to be bitwise identical to an uninterrupted run — i.e.
// the backend choice (and its escalation schedule) round-trips through the
// snapshot exactly.
func TestSnapshotRoundTripsSurrogateBackend(t *testing.T) {
	eval := func(x []float64) float64 {
		return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.6)*(x[1]-0.6)
	}
	cfg := createRequest{ID: "feat", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 6, MaxEvals: 36, Seed: 13,
		FitIters: 8, RefitEvery: 4,
		Surrogate: "auto", EscalateAt: 12,
	}}

	// Reference: one daemon, straight through.
	cRef, _, stopRef := newTestServer(t)
	defer stopRef()
	cRef.post("/sessions", cfg, &createResponse{})
	ref := newVirtualDriver(t, 3, eval).run(cRef, "feat", 0)
	if !ref.Done || len(ref.Records) == 0 {
		t.Fatalf("reference run incomplete: %+v", ref)
	}
	if ref.SurrogateActive != "features" {
		t.Fatalf("reference session never escalated: active backend %q", ref.SurrogateActive)
	}

	// Interrupted PAST the escalation point, so the snapshot's replay must
	// reproduce the escalation itself.
	c1, _, stop1 := newTestServer(t)
	c1.post("/sessions", cfg, &createResponse{})
	d := newVirtualDriver(t, 3, eval)
	mid := d.run(c1, "feat", 20)
	if mid.Done {
		t.Fatal("interrupted too late; lower maxTells")
	}
	if mid.SurrogateActive != "features" {
		t.Fatalf("session not escalated at interruption: %q after %d observations", mid.SurrogateActive, mid.Observations)
	}
	var snap Snapshot
	if code := c1.get("/sessions/feat/snapshot", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	stop1()

	if snap.Config.Surrogate != "auto" || snap.Config.EscalateAt != 12 {
		t.Fatalf("snapshot dropped the backend config: surrogate=%q escalate_at=%d",
			snap.Config.Surrogate, snap.Config.EscalateAt)
	}

	c2, _, stop2 := newTestServer(t)
	defer stop2()
	var restored Status
	if code := c2.post("/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("restore: status %d (%+v)", code, restored)
	}
	if restored.SurrogateActive != "features" {
		t.Fatalf("restored session lost the escalation: active backend %q", restored.SurrogateActive)
	}
	fin := d.run(c2, "feat", 0)
	if !fin.Done {
		t.Fatalf("continued run never finished: %+v", fin)
	}
	if len(fin.Records) != len(ref.Records) {
		t.Fatalf("records: %d continued vs %d uninterrupted", len(fin.Records), len(ref.Records))
	}
	for i := range fin.Records {
		a, b := fin.Records[i], ref.Records[i]
		if !core.EqualPoints(a.X, b.X) || math.Float64bits(a.Y) != math.Float64bits(b.Y) {
			t.Fatalf("record %d diverged after restore:\n continued %+v\n reference %+v", i, a, b)
		}
	}
	if math.Float64bits(*fin.BestY) != math.Float64bits(*ref.BestY) {
		t.Fatalf("best diverged: %v vs %v", *fin.BestY, *ref.BestY)
	}
}

// TestSessionConfigRejectsUnknownSurrogate pins backend validation at the
// HTTP boundary.
func TestSessionConfigRejectsUnknownSurrogate(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	var e errorResponse
	code := c.post("/sessions", createRequest{ID: "bad", SessionConfig: SessionConfig{
		Lo: []float64{0}, Hi: []float64{1}, Surrogate: "neural",
	}}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown surrogate accepted: status %d (%+v)", code, e)
	}
}
