package serve

// Table-driven edge-case tests for the hand-rolled HTTP router: every route
// must answer the right status for the wrong method, unknown ids must 404 on
// verb routes, an oversized body must be rejected 413 before a byte of it is
// JSON-decoded, and a malformed tell must answer 400 before anything is
// logged.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPRoutingEdgeCases(t *testing.T) {
	c, _, stop := newTestServer(t)
	defer stop()

	// One live session so verb routes resolve past the id lookup.
	req := createRequest{ID: "edge", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 2, MaxEvals: 4, FitIters: 4,
	}}
	if code := c.post("/sessions", req, &createResponse{}); code != http.StatusCreated {
		t.Fatalf("creating edge session: %d", code)
	}

	// Deliberately NOT JSON: if the router decoded the body before checking
	// its size, these requests would answer 400 (bad JSON), not 413.
	oversized := bytes.Repeat([]byte("x"), MaxBodyBytes+1)

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		want   int
	}{
		// Method mismatches on every route.
		{"collection PUT", http.MethodPut, "/sessions", nil, http.StatusMethodNotAllowed},
		{"collection DELETE", http.MethodDelete, "/sessions", nil, http.StatusMethodNotAllowed},
		{"restore GET", http.MethodGet, "/sessions/restore", nil, http.StatusMethodNotAllowed},
		{"restore DELETE", http.MethodDelete, "/sessions/restore", nil, http.StatusMethodNotAllowed},
		{"status POST", http.MethodPost, "/sessions/edge", []byte("{}"), http.StatusMethodNotAllowed},
		{"status PUT", http.MethodPut, "/sessions/edge", nil, http.StatusMethodNotAllowed},
		{"ask GET", http.MethodGet, "/sessions/edge/ask", nil, http.StatusMethodNotAllowed},
		{"ask DELETE", http.MethodDelete, "/sessions/edge/ask", nil, http.StatusMethodNotAllowed},
		{"tell GET", http.MethodGet, "/sessions/edge/tell", nil, http.StatusMethodNotAllowed},
		{"snapshot POST", http.MethodPost, "/sessions/edge/snapshot", []byte("{}"), http.StatusMethodNotAllowed},
		{"snapshot DELETE", http.MethodDelete, "/sessions/edge/snapshot", nil, http.StatusMethodNotAllowed},

		// Unknown sessions and unknown routes.
		{"tell unknown session", http.MethodPost, "/sessions/ghost/tell", []byte(`{"proposal_id":0,"y":1}`), http.StatusNotFound},
		{"ask unknown session", http.MethodPost, "/sessions/ghost/ask", []byte("{}"), http.StatusNotFound},
		{"unknown verb", http.MethodPost, "/sessions/edge/nosuchverb", []byte("{}"), http.StatusNotFound},
		{"too-deep path", http.MethodGet, "/sessions/edge/ask/extra", nil, http.StatusNotFound},
		{"unknown top route", http.MethodGet, "/nope", nil, http.StatusNotFound},
		{"root", http.MethodGet, "/", nil, http.StatusNotFound},

		// Oversized bodies: 413 before JSON decode, on every decoding route.
		{"oversized create", http.MethodPost, "/sessions", oversized, http.StatusRequestEntityTooLarge},
		{"oversized restore", http.MethodPost, "/sessions/restore", oversized, http.StatusRequestEntityTooLarge},
		{"oversized tell", http.MethodPost, "/sessions/edge/tell", oversized, http.StatusRequestEntityTooLarge},

		// Malformed tells: a validation error, never a 500 and never an
		// observation. A tell with neither y nor error used to be recorded
		// as y = 0.
		{"tell wrong dimension", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5],"y":1}`), http.StatusBadRequest},
		{"tell no point", http.MethodPost, "/sessions/edge/tell", []byte(`{"y":1}`), http.StatusBadRequest},
		{"tell without y, by id", http.MethodPost, "/sessions/edge/tell", []byte(`{"proposal_id":3}`), http.StatusBadRequest},
		{"tell without y, by x", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5,0.5]}`), http.StatusBadRequest},
		{"tell null y", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5,0.5],"y":null}`), http.StatusBadRequest},
		{"tell trailing garbage", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5,0.5],"y":2} garbage`), http.StatusBadRequest},
		{"tell trailing value", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5,0.5],"y":2}{}`), http.StatusBadRequest},
		{"tell trailing brace", http.MethodPost, "/sessions/edge/tell", []byte(`{"x":[0.5,0.5],"y":2}}`), http.StatusBadRequest},
		{"create trailing garbage", http.MethodPost, "/sessions", []byte(`{"id":"tail","lo":[0],"hi":[1]} x`), http.StatusBadRequest},
		// The config has no testbench or fidelity label (the evaluation
		// cache that read them is gone): like any unknown field, a 400.
		{"create with testbench label", http.MethodPost, "/sessions", []byte(`{"id":"lab","lo":[0],"hi":[1],"testbench":"tb"}`), http.StatusBadRequest},
		// A snapshot whose config no create would accept is the sender's
		// error (FuzzHTTP found it answering 500).
		{"restore degenerate bounds", http.MethodPost, "/sessions/restore",
			[]byte(`{"version":1,"id":"rb","config":{"lo":[0],"hi":[-0]},"events":[]}`), http.StatusBadRequest},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			httpReq, err := http.NewRequest(tc.method, c.base+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.hc.Do(httpReq)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error response is not JSON: %v", err)
			}
			if e.Error == "" {
				t.Fatalf("%s %s: empty error message in %d response", tc.method, tc.path, resp.StatusCode)
			}
			if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(e.Error, "limit") {
				t.Fatalf("413 error does not name the limit: %q", e.Error)
			}
		})
	}

	// The edge session must be untouched by all of the above.
	var st Status
	if code := c.get("/sessions/edge", &st); code != http.StatusOK || st.Observations != 0 || st.Failures != 0 {
		t.Fatalf("edge session disturbed: code %d, status %+v", code, st)
	}
	if code := c.get("/sessions/tail", &errorResponse{}); code != http.StatusNotFound {
		t.Fatalf("create with trailing data left a session behind: %d", code)
	}
	// Trailing whitespace is not trailing data, and a failed tell needs no y.
	for _, body := range []string{`{"x":[0.5,0.5],"y":2}` + " \n\t", `{"x":[0.25,0.5],"error":"diverged"}`} {
		if code, data := c.raw(http.MethodPost, "/sessions/edge/tell", body); code != http.StatusOK {
			t.Fatalf("tell %s: %d: %s", body, code, data)
		}
	}
}

// box is a JSON array of d copies of v: one side of a d-dimensional box.
func box(d int, v float64) string {
	return "[" + strings.TrimSuffix(strings.Repeat(fmt.Sprint(v)+",", d), ",") + "]"
}

// ceilingBodies are create bodies one past each of normalize's ceilings.
func ceilingBodies() map[string]string {
	return map[string]string{
		"init_points": fmt.Sprintf(`{"id":"big-design","lo":[0,0],"hi":[1,1],"init_points":%d}`, maxDesignCoords/2+1),
		"dimensions":  fmt.Sprintf(`{"id":"big-box","lo":%s,"hi":%s}`, box(maxDim+1, 0), box(maxDim+1, 1)),
		"fit_iters":   fmt.Sprintf(`{"id":"big-fit","lo":[0],"hi":[1],"fit_iters":%d}`, maxFitIters+1),
	}
}

// TestCreateCeilings: a create one past a ceiling — a design of more
// coordinates than the daemon allocates for one session, more dimensions
// than an ask sweeps, more Adam steps than a refit runs — is a 400 that
// creates and logs nothing, where it would otherwise allocate, or wedge the
// session on, whatever a 60-byte body asked for. At the ceilings, and at the
// serve-wal benchmark's 100 000-point design, it is a 201.
func TestCreateCeilings(t *testing.T) {
	store := memStore()
	sv := NewServerWith(ServerOptions{Store: store})
	defer sv.Close()
	if _, err := sv.Recover(); err != nil {
		t.Fatal(err)
	}
	create := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for name, body := range ceilingBodies() {
		if code, resp := create(body); code != http.StatusBadRequest {
			t.Errorf("%s one past its ceiling: %d %s", name, code, resp)
		}
	}
	if n := sv.reg.Len(); n != 0 {
		t.Fatalf("%d sessions after rejected creates", n)
	}
	if ids, err := store.List(); err != nil || len(ids) != 0 {
		t.Fatalf("store holds %v (%v) after rejected creates", ids, err)
	}
	for name, body := range map[string]string{
		"at the ceilings": fmt.Sprintf(`{"id":"edge","lo":%s,"hi":%s,"init_points":%d,"fit_iters":%d}`,
			box(maxDim, 0), box(maxDim, 1), maxDesignCoords/maxDim, maxFitIters),
		"serve-wal": `{"id":"wal","lo":[0,0,0,0],"hi":[1,1,1,1],"init_points":100000}`,
	} {
		if code, resp := create(body); code != http.StatusCreated {
			t.Errorf("%s: %d %s", name, code, resp)
		}
	}
}
