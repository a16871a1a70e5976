package serve

// The flat-cost wire contract: a tell is acknowledged with a constant-size
// TellAck, GET /sessions/{id} is the one response that grows with the
// history and ?since= pages it, a bare GET is byte-for-byte what it was
// before the ack existed, and the read routes share the session's
// append-only arrays with the actor instead of copying them.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/status_bare_get.json from the current Status encoding")

// lookupOnly is a session whose every ask is a design lookup: no model is
// ever fit, so thousands of round trips stay cheap.
func lookupOnly(id string) createRequest {
	return createRequest{ID: id, SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 100000, Seed: 3, Failure: "skip",
	}}
}

// raw performs one request and returns the status code and the body bytes.
func (c *client) raw(method, path, body string) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestTellAckSizeIndependentOfHistory(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	if code := c.post("/sessions", lookupOnly("flat"), &createResponse{}); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	// roundTrip asks once and tells twice under one idempotency key: the
	// live ack and the replayed one. y is constant, so the incumbent — the
	// only other part of an ack that could change width — never moves.
	roundTrip := func(k int) (live, replay []byte) {
		var a Ask
		if code := c.post("/sessions/flat/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
			t.Fatalf("ask %d: status %d, %+v", k, code, a)
		}
		body := fmt.Sprintf(`{"proposal_id":%d,"y":1,"ik":"tell-%d"}`, a.ProposalID, k)
		for _, out := range []*[]byte{&live, &replay} {
			code, data := c.raw(http.MethodPost, "/sessions/flat/tell", body)
			if code != http.StatusOK {
				t.Fatalf("tell %d: status %d: %s", k, code, data)
			}
			*out = data
		}
		return live, replay
	}
	var small, large [2][]byte
	for k := 1; k <= 2000; k++ {
		live, replay := roundTrip(k)
		switch k {
		case 10:
			small = [2][]byte{live, replay}
		case 2000:
			large = [2][]byte{live, replay}
		}
	}
	// 10 → 2000 adds two digits to each of observations, completed and
	// launched; nothing else in an ack may depend on the history.
	const counterDigits = 3 * 2
	for i, path := range []string{"live", "idempotent replay"} {
		if grew := len(large[i]) - len(small[i]); grew < 0 || grew > counterDigits {
			t.Errorf("%s ack: %d bytes at n=10, %d at n=2000\n%s\n%s", path, len(small[i]), len(large[i]), small[i], large[i])
		}
		for _, field := range []string{"records", "failed", "outstanding", "config"} {
			if bytes.Contains(large[i], []byte(`"`+field+`"`)) {
				t.Errorf("%s ack carries %q: %s", path, field, large[i])
			}
		}
	}
	if !bytes.Equal(large[0], large[1]) {
		t.Errorf("replayed ack differs from the live one:\n%s\n%s", large[0], large[1])
	}
	var ack TellAck
	var st Status
	c.get("/sessions/flat", &st)
	if code := c.post("/sessions/flat/tell", Tell{X: []float64{0.5, 0.5}, Y: 0}, &ack); code != http.StatusOK {
		t.Fatalf("raw-x tell: %d", code)
	}
	if ack.ID != "flat" || ack.Epoch != 1 || ack.Observations != 2001 || ack.Completed != 2001 || ack.Launched != 2000 ||
		ack.BestY == nil || *ack.BestY != 1 || len(ack.BestX) != 2 || len(st.Records) != 2000 {
		t.Fatalf("ack %+v after %d records", ack, len(st.Records))
	}
}

// pinnedSession drives a fixed request sequence that reaches every Status
// field: records, a failed record, an outstanding proposal, an unsolicited
// observation, the incumbent.
func pinnedSession(c *client) {
	c.t.Helper()
	req := createRequest{ID: "pinned", SessionConfig: SessionConfig{
		Name: "pinned", Lo: []float64{-1, 0}, Hi: []float64{1, 2},
		InitPoints: 8, MaxEvals: 12, Seed: 7, Failure: "skip",
	}}
	if code := c.post("/sessions", req, &createResponse{}); code != http.StatusCreated {
		c.t.Fatalf("create: %d", code)
	}
	for k := 0; k < 6; k++ {
		var a Ask
		if code := c.post("/sessions/pinned/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
			c.t.Fatalf("ask %d: status %d, %+v", k, code, a)
		}
		tell := Tell{ProposalID: &a.ProposalID, Y: 1 - a.X[0]*a.X[0] - (a.X[1]-1)*(a.X[1]-1)}
		switch k {
		case 2:
			tell = Tell{ProposalID: &a.ProposalID, Error: "simulator diverged"}
		case 5:
			continue // left outstanding
		}
		if code := c.post("/sessions/pinned/tell", tell, &TellAck{}); code != http.StatusOK {
			c.t.Fatalf("tell %d: %d", k, code)
		}
	}
	if code := c.post("/sessions/pinned/tell", Tell{X: []float64{0.25, 1.5}, Y: 0.5}, &TellAck{}); code != http.StatusOK {
		c.t.Fatalf("unsolicited tell: %d", code)
	}
}

// TestBareGetBodyPinned holds GET /sessions/{id} to the bytes it answered
// before tells stopped carrying the Status: the file was recorded at that
// commit. Clients adopt orphans from this body and the repo benchmark
// compares it across a restart.
func TestBareGetBodyPinned(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	pinnedSession(c)
	code, got := c.raw(http.MethodGet, "/sessions/pinned", "")
	if code != http.StatusOK {
		t.Fatalf("GET: %d: %s", code, got)
	}
	golden := filepath.Join("testdata", "status_bare_get.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bare GET body changed:\n got %s\nwant %s", got, want)
	}
	// since=0 is the same document.
	if _, zero := c.raw(http.MethodGet, "/sessions/pinned?since=0", ""); !bytes.Equal(zero, want) {
		t.Fatalf("?since=0 differs from the bare GET:\n got %s\nwant %s", zero, want)
	}
}

func TestStatusSinceCursor(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	pinnedSession(c)
	var full Status
	c.get("/sessions/pinned", &full)
	n := len(full.Records)
	if n != 5 || full.Observations != n {
		t.Fatalf("pinned session has %d records, %d observations", n, full.Observations)
	}
	for _, tc := range []struct {
		since string
		want  int // HTTP status
		recs  int
	}{
		{"0", http.StatusOK, n},
		{"2", http.StatusOK, n - 2},
		{fmt.Sprint(n), http.StatusOK, 0},
		{fmt.Sprint(n + 1), http.StatusBadRequest, 0},
		{"-1", http.StatusBadRequest, 0},
		{"1.5", http.StatusBadRequest, 0},
		{"abc", http.StatusBadRequest, 0},
		{"", http.StatusBadRequest, 0},
		{"99999999999999999999", http.StatusBadRequest, 0},
	} {
		t.Run("since="+tc.since, func(t *testing.T) {
			var st Status
			var e errorResponse
			out := any(&st)
			if tc.want != http.StatusOK {
				out = &e
			}
			if code := c.get("/sessions/pinned?since="+tc.since, out); code != tc.want {
				t.Fatalf("status %d, want %d", code, tc.want)
			}
			if tc.want != http.StatusOK {
				if e.Error == "" {
					t.Fatal("400 without an error message")
				}
				return
			}
			// Everything but the records is the full document; observations
			// is the cursor the next poll passes.
			if st.Observations != n || len(st.Failed) != 1 || len(st.Outstanding) != 1 || len(st.Records) != tc.recs {
				t.Fatalf("%d observations, %d failed, %d outstanding, %d records", st.Observations, len(st.Failed), len(st.Outstanding), len(st.Records))
			}
			requireSameRecords(t, full.Records[n-tc.recs:], st.Records)
		})
	}
}

// TestReadsShareHistoryWithActor is the zero-copy contract under -race:
// status, ?since= and snapshot reads encode prefixes of the arrays the actor
// is appending to, beside tells that grow records, failed and events, and
// compactions that encode the event prefix on a goroutine of their own.
func TestReadsShareHistoryWithActor(t *testing.T) {
	disk := NewMemDisk(16)
	c, sv, stop := newTestServerWith(t, ServerOptions{Store: disk.Open()})
	defer stop()
	if code := c.post("/sessions", lookupOnly("shared"), &createResponse{}); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	const tells = 400
	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(read func(prev int) int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for stopping := false; !stopping; {
				select {
				case <-done:
					stopping = true // one last read, of the final state
				default:
				}
				prev = read(prev)
			}
		}()
	}
	reader(func(prev int) int {
		var st Status
		if code := c.get("/sessions/shared", &st); code != http.StatusOK {
			t.Errorf("GET: %d", code)
		}
		if len(st.Records) != st.Observations || len(st.Failed) != st.Failures || st.Observations < prev {
			t.Errorf("GET: %d records for %d observations (%d before), %d failed for %d failures",
				len(st.Records), st.Observations, prev, len(st.Failed), st.Failures)
		}
		return st.Observations
	})
	reader(func(since int) int {
		var st Status
		if code := c.get(fmt.Sprintf("/sessions/shared?since=%d", since), &st); code != http.StatusOK {
			t.Errorf("GET ?since=%d: %d", since, code)
		}
		if len(st.Records) != st.Observations-since {
			t.Errorf("GET ?since=%d: %d records, %d observations", since, len(st.Records), st.Observations)
		}
		return st.Observations
	})
	reader(func(prev int) int {
		var snap Snapshot
		if code := c.get("/sessions/shared/snapshot", &snap); code != http.StatusOK {
			t.Errorf("snapshot: %d", code)
		}
		if len(snap.Events) < prev || len(snap.Events) < snap.Observations {
			t.Errorf("snapshot: %d events (%d before) for %d observations", len(snap.Events), prev, snap.Observations)
		}
		return len(snap.Events)
	})
	for k := 0; k < tells; k++ {
		tell := Tell{X: []float64{float64(k) / tells, 0.5}, Y: float64(k)}
		if k%7 == 3 {
			tell.Error = "injected"
		}
		if code := c.post("/sessions/shared/tell", tell, &TellAck{}); code != http.StatusOK {
			t.Fatalf("tell %d: %d", k, code)
		}
	}
	close(done)
	wg.Wait()

	// A prefix handed out can never be appended into.
	s, err := sv.reg.get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.do(func() {
		st, snap := s.status(), s.snapshot()
		if cap(st.Records) != len(st.Records) || cap(st.Failed) != len(st.Failed) || cap(snap.Events) != len(snap.Events) {
			t.Errorf("prefix with spare capacity: records %d/%d, failed %d/%d, events %d/%d", len(st.Records), cap(st.Records),
				len(st.Failed), cap(st.Failed), len(snap.Events), cap(snap.Events))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The live server holds the session's lock; a restart reads its log.
	stop()
	st := disk.Open()
	defer st.Close()
	ps, err := st.LoadSession("shared")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Snapshot == nil {
		t.Fatal("no compaction ran beside the reads")
	}
}

// TestTellCostIndependentOfHistory pins what keeps a long session servable:
// a tell through the handler — decode, actor, WAL append, ack encode —
// and the actor's share of a status read (which every tell queued behind it
// waits for) allocate the same at history 5000 as at 100. Cost is counted
// in heap bytes and allocations, not read off a clock, so the verdict does
// not depend on the box. The counters are the process's, so whatever other
// goroutines allocate inside a window — the race runtime's own, a tell that
// regrows a history slice — can only add to a delta: the window's minimum is
// the operation's own cost.
func TestTellCostIndependentOfHistory(t *testing.T) {
	const window = 64
	const tell = `{"x":[0.25,0.5],"y":1}`
	// measure returns the least heap bytes and allocation count of op.
	measure := func(op func()) (bytes, allocs float64) {
		bytes, allocs = math.Inf(1), math.Inf(1)
		var before, after runtime.MemStats
		for i := 0; i < window; i++ {
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
			allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs))
		}
		return bytes, allocs
	}
	type cost struct{ tellBytes, tellAllocs, statusBytes, statusAllocs float64 }
	at := func(n int) (c cost) {
		sv := NewServerWith(ServerOptions{Store: memStore()})
		if _, err := sv.Recover(); err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		post := func(path, body string) {
			r, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			sv.ServeHTTP(w, r)
			if w.Code/100 != 2 {
				t.Fatalf("POST %s: %d: %s", path, w.Code, w.Body)
			}
		}
		post("/sessions", `{"id":"hist","lo":[0,0],"hi":[1,1]}`)
		for i := 0; i < n; i++ {
			post("/sessions/hist/tell", tell)
		}
		s, err := sv.reg.get("hist")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.do(func() {
			c.statusBytes, c.statusAllocs = measure(func() { _ = s.status() })
		}); err != nil {
			t.Fatal(err)
		}
		c.tellBytes, c.tellAllocs = measure(func() { post("/sessions/hist/tell", tell) })
		return c
	}
	small, large := at(100), at(5000)
	for _, m := range []struct {
		name         string
		small, large float64
	}{
		{"bytes per tell", small.tellBytes, large.tellBytes},
		{"allocations per tell", small.tellAllocs, large.tellAllocs},
		{"bytes per status on the actor", small.statusBytes, large.statusBytes},
		{"allocations per status on the actor", small.statusAllocs, large.statusAllocs},
	} {
		t.Logf("%s: %.0f at n=100, %.0f at n=5000", m.name, m.small, m.large)
		if m.small <= 0 || m.large > 1.10*m.small {
			t.Errorf("%s: ratio %.2f, want <= 1.10", m.name, m.large/m.small)
		}
	}
}
