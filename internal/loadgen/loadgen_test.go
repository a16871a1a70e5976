package loadgen_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"easybo/internal/loadgen"
	"easybo/internal/serve"
)

// TestRunSmoke drives a short load against an in-process daemon: the run
// must complete clean (zero errors), make progress on every axis, and —
// because same-seed session groups propose identical designs — produce
// repeated-point cache traffic (hits or in-flight joins).
func TestRunSmoke(t *testing.T) {
	sv := serve.NewServerWith(serve.ServerOptions{CacheSize: 1024})
	if _, err := sv.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	sum, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:       ts.URL,
		Sessions:      4,
		Duration:      1500 * time.Millisecond,
		SeedGroups:    2,
		Dim:           3,
		InitPoints:    16,
		Testbench:     "smoke-tb",
		SessionPrefix: "runsmoke",
		Client:        ts.Client(),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.Errors != 0 {
		t.Fatalf("load run hit %d errors", sum.Errors)
	}
	if sum.Asks == 0 || sum.Tells == 0 {
		t.Fatalf("no progress: asks=%d tells=%d", sum.Asks, sum.Tells)
	}
	if sum.CachedHits+sum.Joins == 0 {
		t.Fatal("same-seed groups produced no cache traffic (hits or joins)")
	}
	if sum.AsksPerSec <= 0 {
		t.Fatalf("asks_per_sec = %v, want > 0", sum.AsksPerSec)
	}
	// A tell is acknowledged with a constant-size document, not the history.
	if sum.TellRespBytes <= 0 || float64(sum.TellRespBytesMax) < sum.TellRespBytes || sum.TellRespBytesMax > 512 {
		t.Fatalf("tell responses: mean %.0f B, max %d B", sum.TellRespBytes, sum.TellRespBytesMax)
	}
	if sum.AskLatency.P99 <= 0 || sum.AskLatency.P99 < sum.AskLatency.P50 {
		t.Fatalf("ask latency quantiles inconsistent: %+v", sum.AskLatency)
	}
	// The daemon's own /statz agrees that cache traffic happened.
	stz := sv.Stats()
	if stz.Cache == nil {
		t.Fatal("daemon /statz reports no cache despite CacheSize > 0")
	}
	if stz.Cache.Hits+stz.Cache.Joins == 0 {
		t.Fatal("daemon cache saw no hits or joins")
	}
}
