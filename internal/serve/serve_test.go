package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"easybo/internal/core"
)

// client is a minimal JSON test client for the Server routes.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newTestServer(t *testing.T) (*client, *Server, func()) {
	t.Helper()
	return newTestServerWith(t, ServerOptions{})
}

// newTestServerWith builds a ready-to-serve daemon over the given options
// (recovery already run, like cmd/easybod does at boot).
func newTestServerWith(t *testing.T, opts ServerOptions) (*client, *Server, func()) {
	t.Helper()
	if opts.Store == nil {
		opts.Store = memStore()
	}
	sv := NewServerWith(opts)
	if _, err := sv.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts := httptest.NewServer(sv)
	c := &client{t: t, base: ts.URL, hc: ts.Client()}
	return c, sv, func() {
		ts.Close()
		sv.Close()
	}
}

func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (c *client) post(path string, body, out any) int { return c.do(http.MethodPost, path, body, out) }
func (c *client) get(path string, out any) int        { return c.do(http.MethodGet, path, nil, out) }

// sessionSpec declares one test session and its synthetic objective.
type sessionSpec struct {
	id      string
	cfg     createRequest
	eval    func(x []float64) float64 // deterministic objective
	failAt  map[int]bool              // tell indices (per session) that fail
	batch   int                       // proposals asked ahead before telling
	reverse bool                      // tell each batch in reverse (out of order)
}

// driveSession runs one session to completion through the HTTP API and
// returns its final status. The request sequence is fully determined by the
// spec, so the same spec replayed on an idle daemon produces the same
// history regardless of what other sessions run concurrently.
func driveSession(c *client, spec sessionSpec) Status {
	var created createResponse
	if code := c.post("/sessions", spec.cfg, &created); code != http.StatusCreated {
		c.t.Errorf("create %s: status %d", spec.id, code)
		return Status{}
	}
	tells := 0
	for {
		var batch []Ask
		for len(batch) < spec.batch {
			var a Ask
			if code := c.post("/sessions/"+spec.id+"/ask", map[string]any{}, &a); code != http.StatusOK {
				c.t.Errorf("ask %s: status %d", spec.id, code)
				return Status{}
			}
			if a.Status != AskOK {
				break
			}
			batch = append(batch, a)
		}
		if len(batch) == 0 {
			var st Status
			c.get("/sessions/"+spec.id, &st)
			if st.Done || st.Pending == 0 {
				return st
			}
			c.t.Errorf("session %s stalled: %+v", spec.id, st)
			return st
		}
		if spec.reverse {
			for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
				batch[i], batch[j] = batch[j], batch[i]
			}
		}
		for _, a := range batch {
			tell := Tell{ProposalID: &a.ProposalID}
			if spec.failAt[tells] {
				tell.Error = "injected simulator crash"
			} else {
				tell.Y = spec.eval(a.X)
			}
			tells++
			if code := c.post("/sessions/"+spec.id+"/tell", tell, &TellAck{}); code != http.StatusOK {
				c.t.Errorf("tell %s: status %d", spec.id, code)
				return Status{}
			}
		}
	}
}

func specFor(i int, failure string) sessionSpec {
	id := fmt.Sprintf("sess-%d-%s", i, failure)
	a := 0.1 * float64(i%9)
	spec := sessionSpec{
		id: id,
		cfg: createRequest{
			ID: id,
			SessionConfig: SessionConfig{
				Name: id,
				Lo:   []float64{0, 0},
				Hi:   []float64{1, 1},
				// Small fits keep the race test quick.
				InitPoints: 5, MaxEvals: 16, Seed: int64(100 + i),
				FitIters: 8, RefitEvery: 4,
				Failure: failure,
			},
		},
		eval: func(x []float64) float64 {
			return -(x[0]-a)*(x[0]-a) - (x[1]-0.5)*(x[1]-0.5)
		},
		failAt:  map[int]bool{},
		batch:   3,
		reverse: i%2 == 0, // half the sessions tell out of order
	}
	if failure != "abort" {
		spec.failAt[3] = true
		spec.failAt[7] = true
	}
	return spec
}

// TestConcurrentSessionsMatchSingleSessionRuns drives 10 sessions through
// the HTTP handlers from 10 goroutines at once — out-of-order tells,
// injected failures, mixed skip/resubmit policies — then replays each spec
// alone on a fresh daemon and requires bitwise-identical histories. Run
// under -race (make race) this is also the data-race gate for the sharded
// store and the session actors.
func TestConcurrentSessionsMatchSingleSessionRuns(t *testing.T) {
	specs := make([]sessionSpec, 0, 10)
	for i := 0; i < 10; i++ {
		failure := "skip"
		if i%3 == 1 {
			failure = "resubmit"
		}
		specs = append(specs, specFor(i, failure))
	}

	c, _, stop := newTestServer(t)
	defer stop()
	concurrent := make([]Status, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec sessionSpec) {
			defer wg.Done()
			concurrent[i] = driveSession(c, spec)
		}(i, spec)
	}
	wg.Wait()

	for i, spec := range specs {
		// Fresh daemon, same spec, no concurrency: the reference history.
		c2, _, stop2 := newTestServer(t)
		single := driveSession(c2, spec)
		stop2()
		conc := concurrent[i]
		if !conc.Done || !single.Done {
			t.Fatalf("%s: not done (concurrent %v, single %v)", spec.id, conc.Done, single.Done)
		}
		if len(conc.Records) != len(single.Records) {
			t.Fatalf("%s: %d records concurrent vs %d single", spec.id, len(conc.Records), len(single.Records))
		}
		for j := range conc.Records {
			cr, sr := conc.Records[j], single.Records[j]
			if !core.EqualPoints(cr.X, sr.X) || math.Float64bits(cr.Y) != math.Float64bits(sr.Y) {
				t.Fatalf("%s record %d diverged under concurrency:\n conc %+v\n single %+v", spec.id, j, cr, sr)
			}
		}
		if len(conc.Failed) != len(single.Failed) {
			t.Fatalf("%s: failed %d vs %d", spec.id, len(conc.Failed), len(single.Failed))
		}
		if (conc.BestY == nil) != (single.BestY == nil) ||
			(conc.BestY != nil && math.Float64bits(*conc.BestY) != math.Float64bits(*single.BestY)) {
			t.Fatalf("%s: best diverged", spec.id)
		}
		if failure := specs[i].cfg.Failure; failure != "abort" && conc.Failures != 2 {
			t.Fatalf("%s: failures = %d, want 2", spec.id, conc.Failures)
		}
	}
}

func TestHTTPSessionLifecycle(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()

	// Unknown session: 404 everywhere.
	if code := c.get("/sessions/nope", &errorResponse{}); code != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", code)
	}
	// Invalid config: 400.
	if code := c.post("/sessions", createRequest{SessionConfig: SessionConfig{Lo: []float64{0}, Hi: []float64{0}}}, &errorResponse{}); code != http.StatusBadRequest {
		t.Fatalf("degenerate box accepted: %d", code)
	}

	var created createResponse
	req := createRequest{ID: "life", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 3, MaxEvals: 6, Seed: 5, FitIters: 8,
	}}
	if code := c.post("/sessions", req, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if created.ID != "life" || created.Config.Lambda != 6 {
		t.Fatalf("create response %+v", created)
	}
	// Duplicate id: 409.
	if code := c.post("/sessions", req, &errorResponse{}); code != http.StatusConflict {
		t.Fatal("duplicate id accepted")
	}

	// The wire format must carry proposal_id explicitly even for the first
	// proposal (ID 0) — external workers read it as a required field.
	resp, err := c.hc.Post(c.base+"/sessions/life/ask", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte(`"proposal_id":0`)) {
		t.Fatalf("first ask body lacks explicit proposal_id: %s", raw)
	}
	pid0 := 0
	c.post("/sessions/life/tell", Tell{ProposalID: &pid0, Y: -99}, &TellAck{})

	// Drive the rest to completion, telling by proposal id.
	for i := 1; i < 6; i++ {
		var a Ask
		c.post("/sessions/life/ask", map[string]any{}, &a)
		if a.Status != AskOK {
			t.Fatalf("ask %d: %+v", i, a)
		}
		var ack TellAck
		c.post("/sessions/life/tell", Tell{ProposalID: &a.ProposalID, Y: -float64(i)}, &ack)
		if ack.Observations != i+1 {
			t.Fatalf("observations = %d after %d tells", ack.Observations, i+1)
		}
	}
	var a Ask
	c.post("/sessions/life/ask", map[string]any{}, &a)
	if a.Status != AskDone {
		t.Fatalf("exhausted session ask = %+v", a)
	}
	var st Status
	c.get("/sessions/life", &st)
	if !st.Done || st.BestY == nil || *st.BestY != -1 || st.Pending != 0 {
		t.Fatalf("final status %+v", st)
	}

	// Telling a consumed proposal id: 409.
	pid := 0
	if code := c.post("/sessions/life/tell", Tell{ProposalID: &pid, Y: 1}, &errorResponse{}); code != http.StatusConflict {
		t.Fatal("stale proposal id accepted")
	}

	// Listing and deletion.
	var list struct {
		Sessions []string `json:"sessions"`
	}
	c.get("/sessions", &list)
	if len(list.Sessions) != 1 || list.Sessions[0] != "life" {
		t.Fatalf("list = %+v", list)
	}
	if code := c.do(http.MethodDelete, "/sessions/life", nil, nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if code := c.get("/sessions/life", &errorResponse{}); code != http.StatusNotFound {
		t.Fatal("deleted session still served")
	}
}

func TestHTTPAbortPolicyKillsSession(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	req := createRequest{ID: "fragile", SessionConfig: SessionConfig{
		Lo: []float64{0}, Hi: []float64{1}, InitPoints: 2, MaxEvals: 4, FitIters: 8,
	}}
	c.post("/sessions", req, &createResponse{})
	var a Ask
	c.post("/sessions/fragile/ask", map[string]any{}, &a)
	var st TellAck
	if code := c.post("/sessions/fragile/tell", Tell{ProposalID: &a.ProposalID, Error: "boom"}, &st); code != http.StatusOK {
		t.Fatalf("aborting tell status = %d", code)
	}
	if st.Aborted == "" {
		t.Fatalf("abort policy did not kill the session: %+v", st)
	}
	// The dead session keeps reporting its terminal state.
	var e errorResponse
	if code := c.post("/sessions/fragile/ask", map[string]any{}, &e); code == http.StatusOK {
		t.Fatal("dead session issued a proposal")
	}
}

func TestHTTPUnsolicitedTellEnriches(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()
	req := createRequest{ID: "open", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1}, InitPoints: 2, FitIters: 8,
	}}
	c.post("/sessions", req, &createResponse{})
	var st TellAck
	if code := c.post("/sessions/open/tell", Tell{X: []float64{0.25, 0.75}, Y: 1.5}, &st); code != http.StatusOK {
		t.Fatalf("raw-x tell = %d", code)
	}
	if st.Observations != 1 || st.BestY == nil || *st.BestY != 1.5 {
		t.Fatalf("unsolicited tell not absorbed: %+v", st)
	}
}
