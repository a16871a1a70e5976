package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// FuzzHTTP drives one arbitrary request through Server.ServeHTTP on a
// MemStore holding a session that is part way through: two design points
// asked, one told, one still outstanding (proposal 1), so the next ask fits
// a model. The oracle:
//
//   - the server never panics;
//   - it never answers 5xx, except 503 — the documented "not ready / draining"
//     refusal;
//   - a request it answers 4xx leaves the store as it found it: the same
//     sessions, events, snapshots and quarantines.
//
// The seeds are the requests of TestHTTPRoutingEdgeCases (all but the
// oversized bodies, which would make every mutation 8 MiB) plus NaN, ±Inf and
// −0 in every numeric field of create, tell and restore; they run in every
// go test. make fuzz-http runs the fuzzer itself for 30 s.
func FuzzHTTP(f *testing.F) {
	for _, seed := range [][3]string{
		{http.MethodPut, "/sessions", ""},
		{http.MethodDelete, "/sessions", ""},
		{http.MethodGet, "/sessions/restore", ""},
		{http.MethodDelete, "/sessions/restore", ""},
		{http.MethodPost, "/sessions/fz", "{}"},
		{http.MethodPut, "/sessions/fz", ""},
		{http.MethodGet, "/sessions/fz/ask", ""},
		{http.MethodDelete, "/sessions/fz/ask", ""},
		{http.MethodGet, "/sessions/fz/tell", ""},
		{http.MethodPost, "/sessions/fz/snapshot", "{}"},
		{http.MethodDelete, "/sessions/fz/snapshot", ""},
		{http.MethodPost, "/sessions/ghost/tell", `{"proposal_id":0,"y":1}`},
		{http.MethodPost, "/sessions/ghost/ask", "{}"},
		{http.MethodPost, "/sessions/fz/nosuchverb", "{}"},
		{http.MethodGet, "/sessions/fz/ask/extra", ""},
		{http.MethodGet, "/nope", ""},
		{http.MethodGet, "/", ""},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5],"y":1}`},
		{http.MethodPost, "/sessions/fz/tell", `{"y":1}`},
		{http.MethodPost, "/sessions/fz/tell", `{"proposal_id":3}`},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5,0.5]}`},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5,0.5],"y":null}`},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5,0.5],"y":2} garbage`},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5,0.5],"y":2}{}`},
		{http.MethodPost, "/sessions/fz/tell", `{"x":[0.5,0.5],"y":2}}`},
		{http.MethodPost, "/sessions", `{"id":"tail","lo":[0],"hi":[1]} x`},
		// What succeeds, so that mutations start from both sides.
		{http.MethodPost, "/sessions/fz/ask", ""},
		{http.MethodPost, "/sessions/fz/tell", `{"proposal_id":1,"y":0.25}`},
		{http.MethodPost, "/sessions/fz/tell", `{"proposal_id":1,"error":"diverged"}`},
		{http.MethodGet, "/sessions/fz?since=1", ""},
		{http.MethodGet, "/sessions/fz/snapshot", ""},
		{http.MethodDelete, "/sessions/fz", ""},
		{http.MethodGet, "/statz", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	// Non-finite and negative-zero numbers in every numeric field. JSON has no
	// NaN or Inf, so those arrive as tokens or as out-of-range literals.
	restores := restoreSeeds(f)
	for _, v := range []string{"NaN", "Infinity", "-Infinity", "1e999", "-1e999", "-0", "-0.0"} {
		for _, tell := range []string{
			`{"proposal_id":1,"y":%s}`,
			`{"x":[%s,0.5],"y":1}`,
			`{"x":[0.5,%s],"y":-0}`,
			`{"proposal_id":%s,"y":1}`,
		} {
			f.Add(http.MethodPost, "/sessions/fz/tell", fmt.Sprintf(tell, v))
		}
		for _, create := range []string{
			`{"id":"c","lo":[%s,0],"hi":[1,1]}`,
			`{"id":"c","lo":[0,0],"hi":[1,%s]}`,
			`{"id":"c","lo":[0],"hi":[1],"init_points":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"max_evals":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"seed":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"lambda":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"refit_every":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"fit_iters":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"escalate_at":%s}`,
			`{"id":"c","lo":[0],"hi":[1],"max_failures":%s}`,
		} {
			f.Add(http.MethodPost, "/sessions", fmt.Sprintf(create, v))
		}
		for _, restore := range restores {
			f.Add(http.MethodPost, "/sessions/restore", strings.ReplaceAll(restore, "@", v))
		}
	}
	for _, body := range ceilingBodies() {
		f.Add(http.MethodPost, "/sessions", body)
	}
	for _, body := range fittedSeeds(f) {
		f.Add(http.MethodPost, "/sessions/restore", body)
	}

	f.Fuzz(func(t *testing.T, method, path, body string) {
		req, err := http.NewRequest(method, "http://easybod"+path, strings.NewReader(body))
		if err != nil || req.URL.Path == "" || req.URL.Path[0] != '/' {
			return // not a request a client could send
		}
		store := NewMemStore()
		sv := NewServerWith(ServerOptions{Store: store})
		defer func() { sv.Close() }()
		if _, err := sv.Recover(); err != nil {
			t.Fatal(err)
		}
		midway(t, sv)

		before := storeState(store)
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, req)
		code := rec.Code
		if code >= 500 && code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s %q: %d %s", method, path, body, code, rec.Body.Bytes())
		}
		if code >= 400 && code < 500 {
			if after := storeState(store); after != before {
				t.Fatalf("%s %s %q answered %d but changed the store: %s → %s", method, path, body, code, before, after)
			}
		}
		if code < 400 {
			live := replayed(t, sv)
			sv.Close()
			sv = NewServerWith(ServerOptions{Store: store})
			if _, err := sv.Recover(); err != nil {
				t.Fatal(err)
			}
			if got := replayed(t, sv); got != live {
				t.Fatalf("%s %s %q answered %d, and a recovery replays\n%s\nwhere the live server held\n%s", method, path, body, code, got, live)
			}
		}
	})
}

// replayed is, as JSON, what a recovery re-derives of every session the
// server holds: its records, failed tells, outstanding proposals, best,
// observation count, active surrogate backend and hyperparameters. Go
// encodes a float64 as the shortest decimal that parses back to it, -0
// included, so two equal strings hold the same bits.
func replayed(tb testing.TB, sv *Server) string {
	tb.Helper()
	get := func(path string, out any) {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatalf("GET %s: %v", path, err)
		}
	}
	ids := sv.reg.IDs()
	sort.Strings(ids)
	var b bytes.Buffer
	for _, id := range ids {
		var st Status
		var snap Snapshot
		get("/sessions/"+id, &st)
		get("/sessions/"+id+"/snapshot", &snap)
		enc, err := json.Marshal(struct {
			ID           string
			Records      []Record
			Failed       []Record
			Outstanding  []Proposal
			BestX        []float64
			BestY        *float64
			Observations int
			Surrogate    string
			Theta        []float64
			LogNoise     *float64
		}{id, st.Records, st.Failed, st.Outstanding, st.BestX, st.BestY, st.Observations,
			st.SurrogateActive, snap.Theta, snap.LogNoise})
		if err != nil {
			tb.Fatal(err)
		}
		b.Write(enc)
		b.WriteByte('\n')
	}
	return b.String()
}

// midway builds the fuzz target's session "fz" through the API: two design
// points asked (proposals 0 and 1), proposal 0 told.
func midway(tb testing.TB, sv *Server) {
	tb.Helper()
	for _, r := range [][2]string{
		{"/sessions", `{"id":"fz","lo":[0,0],"hi":[1,1],"init_points":2,"max_evals":8,"fit_iters":4,"failure":"skip"}`},
		{"/sessions/fz/ask", ""},
		{"/sessions/fz/ask", ""},
		{"/sessions/fz/tell", `{"proposal_id":0,"y":1.5}`},
	} {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r[0], strings.NewReader(r[1])))
		if rec.Code >= 300 {
			tb.Fatalf("setting up: POST %s: %d %s", r[0], rec.Code, rec.Body.Bytes())
		}
	}
}

// restoreSeeds returns the snapshot of a midway session under a new id, as
// restore bodies with "@" standing in turn for each numeric field of the
// snapshot: the told value, both coordinates of the told and of the asked
// point, a proposal id, a bound and λ of the config, and a count.
func restoreSeeds(f *testing.F) []string {
	sv := NewServerWith(ServerOptions{})
	defer sv.Close()
	if _, err := sv.Recover(); err != nil {
		f.Fatal(err)
	}
	midway(f, sv)
	rec := httptest.NewRecorder()
	sv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/fz/snapshot", nil))
	if rec.Code != http.StatusOK {
		f.Fatalf("snapshot: %d %s", rec.Code, rec.Body.Bytes())
	}
	raw := rec.Body.Bytes()
	var out []string
	variant := func(edit func(snap, cfg, ask, tell map[string]any)) {
		var snap map[string]any
		if err := json.Unmarshal(raw, &snap); err != nil {
			f.Fatal(err)
		}
		snap["id"] = "r"
		var ask, tell map[string]any
		for _, e := range snap["events"].([]any) {
			switch ev := e.(map[string]any); ev["kind"] {
			case "ask":
				ask = ev
			case "tell":
				tell = ev
			}
		}
		edit(snap, snap["config"].(map[string]any), ask, tell)
		b, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, strings.ReplaceAll(string(b), `"@"`, "@"))
	}
	variant(func(_, _, _, tell map[string]any) { tell["y"] = "@" })
	for j := 0; j < 2; j++ {
		variant(func(_, _, _, tell map[string]any) { tell["x"].([]any)[j] = "@" })
		variant(func(_, _, ask, _ map[string]any) { ask["x"].([]any)[j] = "@" })
	}
	variant(func(_, _, ask, _ map[string]any) { ask["id"] = "@" })
	variant(func(_, cfg, _, _ map[string]any) { cfg["hi"].([]any)[0] = "@" })
	variant(func(_, cfg, _, _ map[string]any) { cfg["lambda"] = "@" })
	variant(func(snap, _, _, _ map[string]any) { snap["observations"] = "@" })
	return out
}

// fittedSeeds returns restore bodies of sessions that have fitted a model —
// on the exact backend, on the feature backend, and on auto past its
// escalation — and have two model asks outstanding, so that what the replay
// oracle compares includes hyperparameters and the active backend.
func fittedSeeds(f *testing.F) []string {
	sv := NewServerWith(ServerOptions{})
	defer sv.Close()
	if _, err := sv.Recover(); err != nil {
		f.Fatal(err)
	}
	post := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			f.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	var out []string
	for i, backend := range []string{`"surrogate":"exact"`, `"surrogate":"features"`, `"surrogate":"auto","escalate_at":3`} {
		id := fmt.Sprintf("m%d", i)
		post("/sessions", fmt.Sprintf(`{"id":%q,"lo":[0,0],"hi":[1,1],"init_points":3,"fit_iters":4,%s}`, id, backend))
		for p := 0; p < 3; p++ {
			post("/sessions/"+id+"/ask", "")
		}
		for p, y := range []float64{1.5, -0.25, 0.75} {
			post("/sessions/"+id+"/tell", fmt.Sprintf(`{"proposal_id":%d,"y":%g}`, p, y))
		}
		post("/sessions/"+id+"/ask", "")
		post("/sessions/"+id+"/ask", "")
		rec := httptest.NewRecorder()
		sv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions/"+id+"/snapshot", nil))
		var snap map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			f.Fatal(err)
		}
		if snap["theta"] == nil {
			f.Fatalf("%s fitted no model: %s", backend, rec.Body.Bytes())
		}
		snap["id"] = "r"
		b, err := json.Marshal(snap)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// storeState summarizes everything a request could have written to a
// MemStore: sessions, events per session, snapshots, quarantines.
func storeState(st *MemStore) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b bytes.Buffer
	ids := make([]string, 0, len(st.m))
	for id := range st.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := st.m[id]
		s.mu.Lock()
		fmt.Fprintf(&b, "%s:%d/%v ", id, len(s.events), s.snap != nil)
		s.mu.Unlock()
	}
	fmt.Fprintf(&b, "quarantined:%d", len(st.q))
	return b.String()
}
