package serve

import (
	"net/http"
	"testing"
)

func TestAdmissionGateUnits(t *testing.T) {
	ad := &admission{queueDepth: 1}
	rel1, ok := ad.admitAsk()
	if !ok {
		t.Fatal("first ask must admit")
	}
	if _, ok := ad.admitAsk(); ok {
		t.Fatal("second concurrent ask must shed at queue depth 1")
	}
	rel1()
	if rel2, ok := ad.admitAsk(); !ok {
		t.Fatal("ask after release must admit")
	} else {
		rel2()
	}
	if got := ad.stats().ShedAsks; got != 1 {
		t.Fatalf("shed count: %d, want 1", got)
	}

	ad = &admission{maxEvals: 2}
	ad.evals.Store(2)
	if _, ok := ad.admitAsk(); ok {
		t.Fatal("ask at the eval ceiling must shed")
	}
	ad.evals.Store(1)
	if rel, ok := ad.admitAsk(); !ok {
		t.Fatal("ask under the eval ceiling must admit")
	} else {
		rel()
	}
}

// TestAdmission429 drives a daemon past -max-inflight-evals and requires
// the shed contract: 429 + Retry-After while saturated, admission again
// once a tell retires work, counters on /statz.
func TestAdmission429(t *testing.T) {
	c, _, stop := newTestServerWith(t, ServerOptions{MaxInflightEvals: 2})
	defer stop()

	cfg := createRequest{ID: "adm", SessionConfig: SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 6, MaxEvals: 6, Seed: 1, FitIters: 4,
	}}
	if code := c.post("/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatal("create adm")
	}
	var asks []Ask
	for i := 0; i < 2; i++ {
		var a Ask
		if code := c.post("/sessions/adm/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
			t.Fatalf("ask %d under the limit: code %d", i, code)
		}
		asks = append(asks, a)
	}

	req, _ := http.NewRequest(http.MethodPost, c.base+"/sessions/adm/ask", nil)
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ask: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Fatalf("Retry-After: %q, want %q", ra, retryAfterSeconds)
	}

	// A tell retires work; the next ask must admit again.
	c.post("/sessions/adm/tell", Tell{ProposalID: &asks[0].ProposalID, Y: 0.5}, nil)
	var a Ask
	if code := c.post("/sessions/adm/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
		t.Fatalf("ask after tell: code %d status %s", code, a.Status)
	}

	var st Statz
	if code := c.get("/statz", &st); code != http.StatusOK {
		t.Fatal("statz route")
	}
	if st.Admission.ShedAsks != 1 {
		t.Fatalf("shed_asks: %d, want 1", st.Admission.ShedAsks)
	}
	if st.Admission.InflightEvals != 2 {
		t.Fatalf("inflight_evals: %d, want 2", st.Admission.InflightEvals)
	}
	if st.Admission.MaxInflightEvals != 2 {
		t.Fatalf("max_inflight_evals: %d, want 2", st.Admission.MaxInflightEvals)
	}
}

// TestInflightGaugeReconciledOnDelete: deleting a session with outstanding
// proposals must return their admission slots.
func TestInflightGaugeReconciledOnDelete(t *testing.T) {
	c, sv, stop := newTestServerWith(t, ServerOptions{MaxInflightEvals: 4})
	defer stop()

	cfg := createRequest{ID: "gone", SessionConfig: SessionConfig{
		Lo: []float64{0}, Hi: []float64{1}, InitPoints: 3, MaxEvals: 3, Seed: 2, FitIters: 4,
	}}
	c.post("/sessions", cfg, nil)
	for i := 0; i < 3; i++ {
		var a Ask
		c.post("/sessions/gone/ask", map[string]any{}, &a)
	}
	if got := sv.Stats().Admission.InflightEvals; got != 3 {
		t.Fatalf("inflight before delete: %d, want 3", got)
	}
	if code := c.do(http.MethodDelete, "/sessions/gone", nil, nil); code != http.StatusOK {
		t.Fatal("delete")
	}
	if got := sv.Stats().Admission.InflightEvals; got != 0 {
		t.Fatalf("inflight after delete: %d, want 0", got)
	}
}
