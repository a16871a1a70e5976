package serve

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"easybo/internal/core"
)

func TestEvalKeyCanonicalization(t *testing.T) {
	base, ok := evalKeyFor("opamp", "fine", []float64{0.25, 0.75})
	if !ok {
		t.Fatal("plain point must be cacheable")
	}
	// -0.0 and +0.0 key identically.
	kPos, _ := evalKeyFor("tb", "", []float64{0})
	kNeg, _ := evalKeyFor("tb", "", []float64{math.Copysign(0, -1)})
	if kPos != kNeg {
		t.Error("-0.0 and +0.0 must share a cache key")
	}
	// NaN is uncacheable.
	if _, ok := evalKeyFor("tb", "", []float64{math.NaN()}); ok {
		t.Error("NaN coordinate must be uncacheable")
	}
	// Testbench and fidelity both partition the key space.
	k2, _ := evalKeyFor("other", "fine", []float64{0.25, 0.75})
	if k2 == base {
		t.Error("different testbenches must not share keys")
	}
	k3, _ := evalKeyFor("opamp", "coarse", []float64{0.25, 0.75})
	if k3 == base {
		t.Error("different fidelities must not share keys")
	}
	// The length prefix keeps ("ab","c") and ("a","bc") apart.
	kA, _ := evalKeyFor("ab", "c", nil)
	kB, _ := evalKeyFor("a", "bc", nil)
	if kA == kB {
		t.Error("label boundaries must be part of the key")
	}
}

func TestEvalCacheLRUAndSingleflightUnits(t *testing.T) {
	c := newEvalCache(2)
	k1, _ := evalKeyFor("tb", "", []float64{1})
	k2, _ := evalKeyFor("tb", "", []float64{2})
	k3, _ := evalKeyFor("tb", "", []float64{3})

	// First sight: miss, caller leads.
	if _, out := c.lookup(k1, "s1", 0); out != cacheMiss {
		t.Fatalf("first lookup: got %v, want miss", out)
	}
	// Same key while in flight: join, not a second miss.
	if _, out := c.lookup(k1, "s2", 5); out != cacheInflight {
		t.Fatalf("concurrent lookup: got %v, want inflight", out)
	}
	ws := c.resolve(k1, 42)
	if len(ws) != 1 || ws[0] != (cacheWaiter{session: "s2", proposal: 5}) {
		t.Fatalf("resolve waiters: %+v", ws)
	}
	if y, out := c.lookup(k1, "s3", 0); out != cacheHit || y != 42 {
		t.Fatalf("post-resolve lookup: got (%v,%v), want hit 42", y, out)
	}

	// Fill past capacity: after k2 and k3 land, k1 is least recently used
	// and the third insert evicts it.
	c.lookup(k2, "s1", 1)
	c.resolve(k2, 2)
	c.lookup(k3, "s1", 2)
	c.resolve(k3, 3)
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries: %d, want 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions: %d, want 1", st.Evictions)
	}

	// abandon: only the leader may retire its registration.
	kf, _ := evalKeyFor("tb", "", []float64{9})
	c.lookup(kf, "lead", 7)
	c.abandon(kf, "other", 7) // wrong session: no-op
	if _, out := c.lookup(kf, "w1", 8); out != cacheInflight {
		t.Fatal("registration must survive a non-leader abandon")
	}
	c.abandon(kf, "lead", 7)
	if _, out := c.lookup(kf, "w2", 9); out != cacheMiss {
		t.Fatal("after leader abandon the next lookup must lead afresh")
	}

	// releaseSession drops only the named session's leads.
	c.releaseSession("w2")
	if _, out := c.lookup(kf, "w3", 10); out != cacheMiss {
		t.Fatal("releaseSession must drop the closed session's leads")
	}
}

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

// cachedSessionCfg declares a session that participates in the eval cache.
// Identical seeds make identical LHS designs, so two such sessions propose
// bitwise-identical points — the natural cache workload.
func cachedSessionCfg(id string, seed int64) createRequest {
	return createRequest{
		ID: id,
		SessionConfig: SessionConfig{
			Lo: []float64{0, 0}, Hi: []float64{1, 1},
			InitPoints: 4, MaxEvals: 4, Seed: seed,
			FitIters: 4, RefitEvery: 4,
			Testbench: "quadratic-tb", Fidelity: "fine",
		},
	}
}

func cacheObjective(x []float64) float64 {
	return -(x[0]-0.3)*(x[0]-0.3) - (x[1]-0.3)*(x[1]-0.3)
}

// TestCacheHitAcrossSessions drives one session to completion, then a
// second with the same seed and testbench: every ask of the second must
// come back EvalCached carrying the recorded Y, and telling that Y back
// must leave both histories bitwise identical.
func TestCacheHitAcrossSessions(t *testing.T) {
	c, sv, stop := newTestServerWith(t, ServerOptions{CacheSize: 64})
	defer stop()

	if code := c.post("/sessions", cachedSessionCfg("warm", 11), nil); code != http.StatusCreated {
		t.Fatalf("create warm: %d", code)
	}
	for i := 0; i < 4; i++ {
		var a Ask
		if code := c.post("/sessions/warm/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
			t.Fatalf("warm ask %d: code %d status %s", i, code, a.Status)
		}
		if a.Eval != "" {
			t.Fatalf("warm ask %d: unexpected eval hint %q", i, a.Eval)
		}
		tell := Tell{ProposalID: &a.ProposalID, Y: cacheObjective(a.X)}
		if code := c.post("/sessions/warm/tell", tell, nil); code != http.StatusOK {
			t.Fatalf("warm tell %d: %d", i, code)
		}
	}

	if code := c.post("/sessions", cachedSessionCfg("reuse", 11), nil); code != http.StatusCreated {
		t.Fatalf("create reuse: %d", code)
	}
	for i := 0; i < 4; i++ {
		var a Ask
		if code := c.post("/sessions/reuse/ask", map[string]any{}, &a); code != http.StatusOK || a.Status != AskOK {
			t.Fatalf("reuse ask %d: code %d status %s", i, code, a.Status)
		}
		if a.Eval != EvalCached || a.Y == nil {
			t.Fatalf("reuse ask %d: want cached hint with Y, got %q %v", i, a.Eval, a.Y)
		}
		want := cacheObjective(a.X)
		if math.Float64bits(*a.Y) != math.Float64bits(want) {
			t.Fatalf("reuse ask %d: cached Y %v, want %v", i, *a.Y, want)
		}
		tell := Tell{ProposalID: &a.ProposalID, Y: *a.Y}
		if code := c.post("/sessions/reuse/tell", tell, nil); code != http.StatusOK {
			t.Fatalf("reuse tell %d: %d", i, code)
		}
	}

	var warm, reuse Status
	c.get("/sessions/warm", &warm)
	c.get("/sessions/reuse", &reuse)
	if len(warm.Records) != 4 || len(reuse.Records) != 4 {
		t.Fatalf("records: warm %d reuse %d, want 4 each", len(warm.Records), len(reuse.Records))
	}
	for i := range warm.Records {
		if !core.EqualPoints(warm.Records[i].X, reuse.Records[i].X) ||
			math.Float64bits(warm.Records[i].Y) != math.Float64bits(reuse.Records[i].Y) {
			t.Fatalf("record %d diverged between warm and reuse runs", i)
		}
	}
	if reuse.CacheHits != 4 {
		t.Fatalf("reuse cache_hits: %d, want 4", reuse.CacheHits)
	}
	if st := sv.Stats(); st.Cache == nil || st.Cache.Hits < 4 || st.Cache.Puts < 4 {
		t.Fatalf("server cache stats: %+v", st.Cache)
	}
}

// TestSingleflightConcurrentIdenticalAsks has K sessions with identical
// seeds ask their first point concurrently: exactly one ask must come back
// fresh (that worker simulates), the rest must join in flight, and the one
// tell must propagate the observation to every session. Run under -race
// this is the data-race gate for the cache and the delivery fan-out.
func TestSingleflightConcurrentIdenticalAsks(t *testing.T) {
	const K = 8
	c, sv, stop := newTestServerWith(t, ServerOptions{CacheSize: 64})
	defer stop()

	ids := make([]string, K)
	for i := range ids {
		ids[i] = fmt.Sprintf("sf-%d", i)
		if code := c.post("/sessions", cachedSessionCfg(ids[i], 99), nil); code != http.StatusCreated {
			t.Fatalf("create %s: %d", ids[i], code)
		}
	}

	asks := make([]Ask, K)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := c.post("/sessions/"+ids[i]+"/ask", map[string]any{}, &asks[i]); code != http.StatusOK {
				t.Errorf("ask %s: %d", ids[i], code)
			}
		}(i)
	}
	wg.Wait()

	fresh := -1
	for i, a := range asks {
		switch a.Eval {
		case "":
			if fresh != -1 {
				t.Fatalf("two fresh asks (%s and %s): singleflight broken", ids[fresh], ids[i])
			}
			fresh = i
		case EvalInflight:
		default:
			t.Fatalf("ask %s: unexpected hint %q", ids[i], a.Eval)
		}
		if !core.EqualPoints(a.X, asks[0].X) {
			t.Fatalf("ask %s proposed a different point than ask %s", ids[i], ids[0])
		}
	}
	if fresh == -1 {
		t.Fatal("no fresh ask: nobody would evaluate")
	}

	// The one real evaluation: telling the leader must fan the observation
	// out to every joined session.
	y := cacheObjective(asks[fresh].X)
	tell := Tell{ProposalID: &asks[fresh].ProposalID, Y: y}
	if code := c.post("/sessions/"+ids[fresh]+"/tell", tell, nil); code != http.StatusOK {
		t.Fatalf("leader tell: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			var st Status
			c.get("/sessions/"+id, &st)
			if st.Observations >= 1 {
				if math.Float64bits(*st.BestY) != math.Float64bits(y) {
					t.Fatalf("session %s observed %v, want %v", id, *st.BestY, y)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s never received the delivered observation: %+v", id, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if st := sv.Stats(); st.Cache.Joins != K-1 || st.Cache.Delivered != K-1 {
		t.Fatalf("cache stats after singleflight: %+v", st.Cache)
	}
}

// TestCacheFailedEvalNotCached: a failed leader evaluation must not poison
// the cache — the registration is abandoned and the next identical ask
// leads a fresh evaluation.
func TestCacheFailedEvalNotCached(t *testing.T) {
	c, _, stop := newTestServerWith(t, ServerOptions{CacheSize: 64})
	defer stop()

	cfg := cachedSessionCfg("fail-a", 5)
	cfg.Failure = "skip"
	if code := c.post("/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatal("create fail-a")
	}
	var a Ask
	c.post("/sessions/fail-a/ask", map[string]any{}, &a)
	if a.Eval != "" {
		t.Fatalf("first ask: hint %q", a.Eval)
	}
	c.post("/sessions/fail-a/tell", Tell{ProposalID: &a.ProposalID, Error: "simulator crashed"}, nil)

	cfg2 := cachedSessionCfg("fail-b", 5)
	if code := c.post("/sessions", cfg2, nil); code != http.StatusCreated {
		t.Fatal("create fail-b")
	}
	var b Ask
	c.post("/sessions/fail-b/ask", map[string]any{}, &b)
	if !core.EqualPoints(a.X, b.X) {
		t.Fatal("seeded sessions must propose the same first point")
	}
	if b.Eval != "" {
		t.Fatalf("ask after failed eval: hint %q, want fresh", b.Eval)
	}
}

// TestCacheHitReplayDeterminism snapshots a session whose entire history
// was served from the cache and replays it on a daemon with the cache
// disabled: the restored state must be bitwise identical. The cache may
// route work, never state.
func TestCacheHitReplayDeterminism(t *testing.T) {
	c, _, stop := newTestServerWith(t, ServerOptions{CacheSize: 64})
	defer stop()

	for _, id := range []string{"det-warm", "det-cached"} {
		if code := c.post("/sessions", cachedSessionCfg(id, 21), nil); code != http.StatusCreated {
			t.Fatalf("create %s", id)
		}
	}
	drive := func(id string, wantHint string) {
		for {
			var a Ask
			if code := c.post("/sessions/"+id+"/ask", map[string]any{}, &a); code != http.StatusOK {
				t.Fatalf("ask %s: %d", id, code)
			}
			if a.Status != AskOK {
				return
			}
			if a.Eval != wantHint {
				t.Fatalf("%s: hint %q, want %q", id, a.Eval, wantHint)
			}
			y := cacheObjective(a.X)
			if a.Y != nil {
				y = *a.Y
			}
			c.post("/sessions/"+id+"/tell", Tell{ProposalID: &a.ProposalID, Y: y}, nil)
		}
	}
	drive("det-warm", "")
	drive("det-cached", EvalCached)

	var snap Snapshot
	if code := c.get("/sessions/det-cached/snapshot", &snap); code != http.StatusOK {
		t.Fatal("snapshot det-cached")
	}

	// Restore on a daemon with no cache at all: replay must reproduce the
	// exact state without one.
	c2, _, stop2 := newTestServerWith(t, ServerOptions{})
	defer stop2()
	var restored Status
	if code := c2.post("/sessions/restore", snap, &restored); code != http.StatusCreated {
		t.Fatalf("restore on cacheless daemon: %d", code)
	}
	var orig Status
	c.get("/sessions/det-cached", &orig)
	if len(restored.Records) != len(orig.Records) {
		t.Fatalf("restored %d records, want %d", len(restored.Records), len(orig.Records))
	}
	for i := range orig.Records {
		if !core.EqualPoints(orig.Records[i].X, restored.Records[i].X) ||
			math.Float64bits(orig.Records[i].Y) != math.Float64bits(restored.Records[i].Y) {
			t.Fatalf("record %d diverged after cacheless replay", i)
		}
	}
	if restored.CacheHits != 0 {
		t.Fatal("cache counters are process observability and must reset on restore")
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
	if st.Cache != nil {
		t.Fatal("statz cache must be absent when caching is disabled")
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
