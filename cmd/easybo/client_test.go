package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easybo/internal/serve"
)

// TestRetrierRecoversFrom5xx: a daemon answering 503 while its recovery
// replay runs must be retried until it comes up, and the eventual success
// must carry the decoded body.
func TestRetrierRecoversFrom5xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"serve: not ready"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ready":true}`))
	}))
	defer ts.Close()

	rt := newRetrier(ts.Client(), []string{ts.URL}, 4, 0)
	var out struct {
		Ready bool `json:"ready"`
	}
	err := rt.call(http.MethodGet, "", nil, &out, "")
	if err != nil || !out.Ready {
		t.Fatalf("call = %v, ready=%v; want success after retries", err, out.Ready)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestRetrierResendsUnderOneKey: when the connection dies mid-request the
// daemon may have applied the write, so every attempt of the call must carry
// the same idempotency key — the daemon's only way to answer the resend as
// it answered the first delivery.
func TestRetrierResendsUnderOneKey(t *testing.T) {
	var (
		mu   sync.Mutex
		keys []string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get(serve.IdempotencyHeader))
		first := len(keys) == 1
		mu.Unlock()
		if first {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // response lost; request may have been applied
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	rt := newRetrier(ts.Client(), []string{ts.URL}, 4, 0)
	if err := rt.call(http.MethodPost, "", map[string]any{}, nil, "cli-key"); err != nil {
		t.Fatalf("call after dropped connection: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 {
		t.Fatalf("server saw %d attempts, want the dropped one and its resend", len(keys))
	}
	for i, k := range keys {
		if k != "cli-key" {
			t.Fatalf("attempt %d carried key %q, want every attempt under %q", i, k, "cli-key")
		}
	}
}

// TestRetrierStopsOn4xx: semantic errors are the caller's problem — no
// retries, typed status preserved.
func TestRetrierStopsOn4xx(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"serve: unknown proposal"}`, http.StatusConflict)
	}))
	defer ts.Close()

	rt := newRetrier(ts.Client(), []string{ts.URL}, 4, 0)
	err := rt.call(http.MethodPost, "", map[string]any{}, nil, "")
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusConflict {
		t.Fatalf("err = %v, want typed 409", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx retried: server saw %d calls", got)
	}
}

// TestRetrierBackoffBoundedWithJitter pins the backoff envelope: grows
// exponentially, never exceeds the 3s cap, never collapses to zero.
func TestRetrierBackoffBoundedWithJitter(t *testing.T) {
	rt := newRetrier(http.DefaultClient, []string{"http://unused"}, 10, 0)
	for retry := 0; retry < 12; retry++ {
		base := 100 * time.Millisecond
		for i := 0; i < retry && base < 3*time.Second; i++ {
			base *= 2
		}
		if base > 3*time.Second {
			base = 3 * time.Second
		}
		for trial := 0; trial < 16; trial++ {
			d := rt.backoff(retry)
			if d < base/2 || d > base {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", retry, d, base/2, base)
			}
		}
	}
}

// TestRetrierFailsOverToNextEndpoint: with several -serve endpoints, a
// dead preferred node must be demoted and the call completed against a
// survivor — and subsequent calls must go straight to the survivor.
func TestRetrierFailsOverToNextEndpoint(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // connection refused from now on
	var hits atomic.Int32
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"ready":true}`))
	}))
	defer alive.Close()

	rt := newRetrier(alive.Client(), []string{dead.URL, alive.URL}, 4, 0)
	var out struct {
		Ready bool `json:"ready"`
	}
	if err := rt.call(http.MethodGet, "", nil, &out, ""); err != nil || !out.Ready {
		t.Fatalf("call with one dead endpoint = %v, ready=%v", err, out.Ready)
	}
	if rt.base() != alive.URL {
		t.Fatalf("preferred endpoint %q after failover, want the survivor %q", rt.base(), alive.URL)
	}
	if err := rt.call(http.MethodGet, "", nil, &out, ""); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("survivor saw %d calls, want 2", hits.Load())
	}
}

// TestRetrierBudgetBoundsTotalWallClock: a daemon that stays down must
// fail the call once the retry budget elapses — long before the full
// backoff schedule would — and the final error must count the attempts.
func TestRetrierBudgetBoundsTotalWallClock(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	start := time.Now()
	rt := newRetrier(ts.Client(), []string{ts.URL}, 100, 250*time.Millisecond)
	err := rt.call(http.MethodGet, "", nil, nil, "")
	if err == nil {
		t.Fatal("call against a permanently down daemon succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budgeted call took %v, want well under the backoff schedule", elapsed)
	}
	if !strings.Contains(err.Error(), "retry budget") || !strings.Contains(err.Error(), "attempt") {
		t.Fatalf("error %q does not report the exhausted budget and attempt count", err)
	}
}

// TestRetrier412IsRetriedButNotFailedOver: 412 means the session is
// mid-handoff — retry on the same endpoint (any node routes) until the
// transfer settles.
func TestRetrier412IsRetriedButNotFailedOver(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"serve: stale ownership epoch"}`, http.StatusPreconditionFailed)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	rt := newRetrier(ts.Client(), []string{ts.URL, "http://127.0.0.1:1"}, 4, 0)
	if err := rt.call(http.MethodPost, "", map[string]any{}, nil, "cli-test"); err != nil {
		t.Fatalf("call through a mid-handoff 412: %v", err)
	}
	if rt.base() != ts.URL {
		t.Fatal("412 demoted the endpoint; only transport errors and 5xx should")
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestRetrier429IsBackpressureNotFailure: a shedding daemon answers 429 +
// Retry-After; the client must treat it as backoff-not-failure — retry
// until admitted, honor the advertised pause when it exceeds the backoff
// schedule, and never demote the endpoint (its siblings are under the same
// load).
func TestRetrier429IsBackpressureNotFailure(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"serve: overloaded, retry later"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	rt := newRetrier(ts.Client(), []string{ts.URL, "http://127.0.0.1:1"}, 4, 0)
	start := time.Now()
	var out struct {
		Status string `json:"status"`
	}
	err := rt.call(http.MethodPost, "", map[string]any{}, &out, "cli-shed")
	if err != nil || out.Status != "ok" {
		t.Fatalf("call through shedding daemon = %v, status %q; want admitted", err, out.Status)
	}
	if rt.base() != ts.URL {
		t.Fatal("429 demoted the endpoint; shedding is backpressure, not node failure")
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Two shed responses, each advertising Retry-After: 1s, which exceeds
	// every early backoff interval (100ms, 200ms): the total wait must
	// honor the daemon's hint, not the shorter schedule.
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("waited %s across two Retry-After: 1 sheds; want >= 2s", elapsed)
	}
}

// TestRetryAfterParsing: the delay-seconds form is honored, garbage and
// absent headers fall back to zero (plain exponential backoff).
func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"1", time.Second},
		{"30", 30 * time.Second},
		{"", 0},
		{"soon", 0},
		{"-5", 0},
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.header != "" {
				w.Header().Set("Retry-After", tc.header)
			}
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		}))
		rt := newRetrier(ts.Client(), []string{ts.URL}, 0, 0) // no retries: inspect the error
		err := rt.call(http.MethodGet, "", nil, nil, "")
		var he *httpError
		if !errors.As(err, &he) {
			t.Fatalf("header %q: error %v, want *httpError", tc.header, err)
		}
		if he.retryAfter != tc.want {
			t.Errorf("header %q: retryAfter %s, want %s", tc.header, he.retryAfter, tc.want)
		}
		ts.Close()
	}
}
