package wal

// End-to-end durability: drive real sessions over HTTP against a
// wal.Store-backed serve.Server, bounce the server, and require the
// recovered run to be bitwise identical to an uninterrupted one.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"easybo/internal/serve"
)

func durableConfig() serve.SessionConfig {
	return serve.SessionConfig{
		Lo: []float64{0, 0}, Hi: []float64{1, 1},
		InitPoints: 4, MaxEvals: 12, Seed: 11,
		FitIters: 8, RefitEvery: 4,
	}
}

// sphere is the deterministic test objective.
func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += (v - 0.3) * (v - 0.3)
	}
	return -s
}

type client struct {
	t    *testing.T
	base string
}

// do sends one JSON request and decodes the response, returning the status
// code. A nil out discards the body.
func (c *client) do(method, path string, in, out any) int {
	c.t.Helper()
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			c.t.Fatal(err)
		}
		body = bytes.NewReader(raw)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("%s %s: decoding %d response: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func (c *client) create(id string, cfg serve.SessionConfig) {
	c.t.Helper()
	req := map[string]any{
		"id": id, "lo": cfg.Lo, "hi": cfg.Hi,
		"init_points": cfg.InitPoints, "max_evals": cfg.MaxEvals,
		"seed": cfg.Seed, "fit_iters": cfg.FitIters, "refit_every": cfg.RefitEvery,
	}
	if code := c.do("POST", "/sessions", req, nil); code != http.StatusCreated {
		c.t.Fatalf("create: status %d", code)
	}
}

func (c *client) status(id string) serve.Status {
	c.t.Helper()
	var st serve.Status
	if code := c.do("GET", "/sessions/"+id, nil, &st); code != http.StatusOK {
		c.t.Fatalf("status: %d", code)
	}
	return st
}

// tellOutstanding re-adopts every orphaned proposal: evaluates and tells it.
func (c *client) tellOutstanding(id string) int {
	c.t.Helper()
	st := c.status(id)
	for _, p := range st.Outstanding {
		pid := p.ProposalID
		code := c.do("POST", "/sessions/"+id+"/tell",
			map[string]any{"proposal_id": pid, "y": sphere(p.X)}, nil)
		if code != http.StatusOK {
			c.t.Fatalf("tell adopted proposal %d: status %d", pid, code)
		}
	}
	return len(st.Outstanding)
}

// drive runs ask/tell rounds until the session is done or maxTells tells
// have been delivered (maxTells < 0: run to completion). Returns tells sent.
func (c *client) drive(id string, maxTells int) int {
	c.t.Helper()
	tells := 0
	for maxTells < 0 || tells < maxTells {
		var ask serve.Ask
		code := c.do("POST", "/sessions/"+id+"/ask", map[string]any{}, &ask)
		if code != http.StatusOK {
			c.t.Fatalf("ask: status %d", code)
		}
		switch ask.Status {
		case serve.AskOK:
			pid := ask.ProposalID
			code := c.do("POST", "/sessions/"+id+"/tell",
				map[string]any{"proposal_id": pid, "y": sphere(ask.X)}, nil)
			if code != http.StatusOK {
				c.t.Fatalf("tell: status %d", code)
			}
			tells++
		case serve.AskDone:
			return tells
		default:
			c.t.Fatalf("unexpected ask status %q with no outstanding work", ask.Status)
		}
	}
	return tells
}

// startServer opens a wal store on dir, recovers, and serves it.
func startServer(t *testing.T, dir string, opts Options) (*client, *serve.Server, *httptest.Server, serve.RecoveryReport) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st})
	report, err := sv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(sv)
	return &client{t: t, base: hs.URL}, sv, hs, report
}

// requireSameOutcome asserts two final session states are bitwise identical.
func requireSameOutcome(t *testing.T, got, want serve.Status) {
	t.Helper()
	if !got.Done || !want.Done {
		t.Fatalf("sessions not done: got.Done=%v want.Done=%v", got.Done, want.Done)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("records diverged:\n got  %+v\n want %+v", got.Records, want.Records)
	}
	if got.BestY == nil || want.BestY == nil ||
		math.Float64bits(*got.BestY) != math.Float64bits(*want.BestY) {
		t.Fatalf("best diverged: got %v want %v", got.BestY, want.BestY)
	}
	if !reflect.DeepEqual(got.BestX, want.BestX) {
		t.Fatalf("best point diverged: got %v want %v", got.BestX, want.BestX)
	}
}

// TestRecoveryContinuationBitwiseIdentical bounces the daemon mid-session
// (graceful close — the kill -9 variant lives in cmd/easybod's crash
// harness) and requires the continued run to finish bitwise identical to an
// uninterrupted one, for every fsync policy, with compaction in play.
func TestRecoveryContinuationBitwiseIdentical(t *testing.T) {
	cfg := durableConfig()

	// Reference: one uninterrupted run.
	refC, refSv, refHS, _ := startServer(t, t.TempDir(), Options{Fsync: PolicyOff, CompactEvery: 4})
	refC.create("ref", cfg)
	refC.drive("ref", -1)
	want := refC.status("ref")
	refHS.Close()
	refSv.Close()

	for _, pol := range []Policy{PolicyAlways, PolicyInterval, PolicyOff} {
		t.Run(string(pol), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Fsync: pol, Interval: 5 * time.Millisecond, CompactEvery: 4}

			c1, sv1, hs1, _ := startServer(t, dir, opts)
			c1.create("ref", cfg)
			c1.drive("ref", 5)
			// Leave one proposal in flight so recovery must hand it back.
			var orphan serve.Ask
			if code := c1.do("POST", "/sessions/ref/ask", map[string]any{}, &orphan); code != http.StatusOK {
				t.Fatalf("orphan ask: status %d", code)
			}
			hs1.Close()
			sv1.Close()

			c2, sv2, hs2, report := startServer(t, dir, opts)
			defer hs2.Close()
			defer sv2.Close()
			if len(report.Recovered) != 1 || report.Recovered[0] != "ref" {
				t.Fatalf("recovery report: %+v", report)
			}
			if n := c2.tellOutstanding("ref"); n != 1 {
				t.Fatalf("recovered session reported %d outstanding proposals, want 1", n)
			}
			c2.drive("ref", -1)
			requireSameOutcome(t, c2.status("ref"), want)
		})
	}
}

// TestGracefulShutdownNeverLosesAcceptedTell is the shutdown-ordering
// contract: even with fsync off (nothing synced, everything in user-space
// buffers), a tell acknowledged before Close must be on disk after it.
func TestGracefulShutdownNeverLosesAcceptedTell(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: PolicyOff, CompactEvery: -1}

	c1, sv1, hs1, _ := startServer(t, dir, opts)
	c1.create("s", durableConfig())
	c1.drive("s", 3)
	hs1.Close()
	sv1.Close() // drains actors, flushes and closes the logs

	c2, sv2, hs2, report := startServer(t, dir, opts)
	defer hs2.Close()
	defer sv2.Close()
	if len(report.Recovered) != 1 {
		t.Fatalf("recovery report: %+v", report)
	}
	st := c2.status("s")
	if st.Observations != 3 || len(st.Records) != 3 {
		t.Fatalf("acknowledged tells lost across graceful shutdown: %d observations, %d records",
			st.Observations, len(st.Records))
	}
}

// TestRecoveryQuarantinesTamperedLog rewrites a logged ask with a valid
// checksum, so only the replay's bit-for-bit re-derivation can catch it.
// The session must be quarantined — 409 on access, id burned, failover
// adoption refused — never silently resurrected with altered history.
func TestRecoveryQuarantinesTamperedLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: PolicyAlways, CompactEvery: -1}

	c1, sv1, hs1, _ := startServer(t, dir, opts)
	c1.create("victim", durableConfig())
	c1.drive("victim", 4)
	hs1.Close()
	sv1.Close()

	// Tamper: flip one ask coordinate inside the WAL, with a recomputed
	// CRC so the framing layer cannot catch it.
	seg := filepath.Join(dir, sessionsDirName, "victim", segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	tampered := false
	for i, line := range lines {
		var rec record
		if err := json.Unmarshal([]byte(line[9:]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "event" && rec.Ev.Kind == "ask" {
			rec.Ev.X[0] += 0.125
			payload, _ := json.Marshal(rec)
			lines[i] = fmt.Sprintf("%08x %s", crc32.ChecksumIEEE(payload), payload)
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no ask record found to tamper")
	}
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, sv2, hs2, report := startServer(t, dir, opts)
	defer hs2.Close()
	defer sv2.Close()
	reason, ok := report.Quarantined["victim"]
	if !ok || !strings.Contains(reason, "diverg") {
		t.Fatalf("tampered session not quarantined for divergence: %+v", report)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, "victim", "REASON")); err != nil {
		t.Fatalf("quarantine forensics missing: %v", err)
	}
	if code := c2.do("GET", "/sessions/victim", nil, nil); code != http.StatusConflict {
		t.Fatalf("quarantined session status = %d, want 409", code)
	}
	if code := c2.do("POST", "/sessions", map[string]any{
		"id": "victim", "lo": []float64{0, 0}, "hi": []float64{1, 1},
	}, nil); code != http.StatusConflict {
		t.Fatalf("re-creating quarantined id = %d, want 409", code)
	}
	var listing struct {
		Quarantined map[string]string `json:"quarantined"`
	}
	if code := c2.do("GET", "/sessions", nil, &listing); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if _, ok := listing.Quarantined["victim"]; !ok {
		t.Fatalf("quarantined session missing from listing: %+v", listing)
	}
	if p := sv2.Progress(); p.Quarantined != 1 || p.Replayed != 0 || sv2.Has("victim") {
		t.Fatalf("progress %+v", p)
	}
	if _, err := sv2.Adopt("victim", "node-x", nil); !errors.Is(err, serve.ErrSessionQuarantined) {
		t.Fatalf("adopt of quarantined session: %v", err)
	}
}

// TestRecoveryRestoresAbortedSession: a session killed by a failed
// evaluation (failure policy abort) must come back dead with the same abort
// reason, not resurrected as live.
func TestRecoveryRestoresAbortedSession(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: PolicyAlways, CompactEvery: -1}

	c1, sv1, hs1, _ := startServer(t, dir, opts)
	c1.create("doomed", durableConfig())
	var ask serve.Ask
	if code := c1.do("POST", "/sessions/doomed/ask", map[string]any{}, &ask); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}
	var st serve.TellAck
	code := c1.do("POST", "/sessions/doomed/tell",
		map[string]any{"proposal_id": ask.ProposalID, "error": "simulator segfault"}, &st)
	if code != http.StatusOK || st.Aborted == "" {
		t.Fatalf("abort tell: code %d, aborted %q", code, st.Aborted)
	}
	hs1.Close()
	sv1.Close()

	c2, sv2, hs2, report := startServer(t, dir, opts)
	defer hs2.Close()
	defer sv2.Close()
	if len(report.Recovered) != 1 {
		t.Fatalf("recovery report: %+v", report)
	}
	got := c2.status("doomed")
	if got.Aborted != st.Aborted {
		t.Fatalf("abort reason diverged: got %q want %q", got.Aborted, st.Aborted)
	}
	if code := c2.do("POST", "/sessions/doomed/ask", map[string]any{}, nil); code == http.StatusOK {
		t.Fatal("recovered aborted session accepted an ask")
	}
}
