package main

// Multi-node fault-injection harness: build the real easybod binary, run
// three of them as one cluster over a shared data directory, drive hundreds
// of concurrent sessions through arbitrary nodes, SIGKILL a random node
// mid-traffic, and require every completed session history to be bitwise
// identical to an uninterrupted single-node run. scripts/clusterloop.sh is
// the shell twin of this test for manual poking.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startClusterNode is startDaemon plus the cluster flags. All nodes share
// dataDir (standing in for a shared filesystem), so a survivor heals a
// killed node's sessions by replaying their write-ahead logs in place.
func startClusterNode(t *testing.T, bin, dataDir string, nodeID, peers string, port int, fsync string) *daemon {
	t.Helper()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logs := &bytes.Buffer{}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync", fsync,
		"-fsync-interval", "25ms",
		"-compact-every", "10",
		"-grace", "5s",
		"-node-id", nodeID,
		"-peers", peers,
		"-heartbeat", "100ms",
		"-suspect-after", "2",
	)
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, base: "http://" + addr, logs: logs}
	t.Cleanup(func() { d.kill() })
	d.waitReady()
	return d
}

// callNode is one JSON round trip against a specific node, carrying an
// idempotency key so a retried delivery after a lost response is
// recognized and applied exactly once.
func callNode(base, method, path string, in, out any, ik string) (int, error) {
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(raw)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ik != "" {
		req.Header.Set("X-Easybod-Idempotency", ik)
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// clusterCall retries one logical request across randomly chosen nodes
// until a non-transient answer arrives: transport errors (a node just got
// SIGKILLed), 5xx (rerouting or recovering), and 412 (the session is
// mid-transfer) all re-resolve against another node. The idempotency key
// rides every attempt, so at-least-once delivery stays exactly-once.
func clusterCall(t *testing.T, rng *rand.Rand, bases []string, method, path string, in, out any, ik string) int {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	delay := 5 * time.Millisecond
	for {
		base := bases[rng.Intn(len(bases))]
		code, err := callNode(base, method, path, in, out, ik)
		if err == nil && code < 500 && code != http.StatusPreconditionFailed {
			return code
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s %s never settled: code %d err %v", method, path, code, err)
		}
		time.Sleep(delay + time.Duration(rng.Int63n(int64(delay))))
		if delay < 500*time.Millisecond {
			delay *= 2
		}
	}
}

// TestClusterKill9SingleNodeLoss is the headline robustness check: three
// nodes over a shared store, 200 concurrent sessions created and driven
// through arbitrary nodes, one random node SIGKILLed mid-traffic. The
// survivors must adopt its sessions and finish every run, no tell that was
// acknowledged anywhere may be lost, and — because each session is a
// deterministic machine — every completed history must be bitwise
// identical to the single-node reference run.
func TestClusterKill9SingleNodeLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess fault injection is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}

	// Every session uses the same spec and seed, so one uninterrupted
	// single-node run is the reference for all 200 cluster histories.
	const sessions = 200
	spec := sessionSpec("ref", 8, 4)
	want := referenceRun(t, bin, spec)

	dataDir := t.TempDir()
	ports := []int{freePort(t), freePort(t), freePort(t)}
	peers := fmt.Sprintf("n0=http://127.0.0.1:%d,n1=http://127.0.0.1:%d,n2=http://127.0.0.1:%d",
		ports[0], ports[1], ports[2])
	var nodes []*daemon
	bases := make([]string, 0, 3)
	for i, port := range ports {
		d := startClusterNode(t, bin, dataDir, fmt.Sprintf("n%d", i), peers, port, "always")
		nodes = append(nodes, d)
		bases = append(bases, d.base)
	}

	// Create every session up front, each through a random node; the
	// cluster routes the create to the id's ring owner.
	for i := 0; i < sessions; i++ {
		rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
		s := sessionSpec(fmt.Sprintf("load-%03d", i), 8, 4)
		if code := clusterCall(t, rng, bases, "POST", "/sessions", s, nil, fmt.Sprintf("create-%03d", i)); code != http.StatusCreated && code != http.StatusConflict {
			t.Fatalf("creating session %d: status %d", i, code)
		}
	}

	// One killer, 200 drivers. The killer SIGKILLs a random node once the
	// fleet is mid-traffic (after ~15% of all tells are acknowledged), so
	// the kill lands while sessions are in every phase: mid-ask, mid-tell,
	// mid-forward, mid-fit.
	var ackedTells atomic.Int64
	victim := rand.New(rand.NewSource(time.Now().UnixNano())).Intn(len(nodes))
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for ackedTells.Load() < sessions*8*15/100 {
			time.Sleep(5 * time.Millisecond)
		}
		nodes[victim].kill()
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)*104729 + 7))
			id := fmt.Sprintf("load-%03d", i)
			for round := 0; ; round++ {
				var a askResp
				// One key per logical ask: a retry whose predecessor was
				// durably applied gets the same proposal back, so no budget
				// slot is orphaned by a lost response.
				askIK := fmt.Sprintf("ask-%03d-%04d", i, round)
				code := clusterCall(t, rng, bases, "POST", "/sessions/"+id+"/ask", map[string]any{}, &a, askIK)
				if code != http.StatusOK {
					t.Errorf("session %s ask: status %d", id, code)
					return
				}
				switch a.Status {
				case "done":
					return
				case "wait":
					time.Sleep(10 * time.Millisecond)
					continue
				}
				tellIK := fmt.Sprintf("tell-%03d-%04d", i, round)
				code = clusterCall(t, rng, bases, "POST", "/sessions/"+id+"/tell",
					map[string]any{"proposal_id": a.ProposalID, "y": sphere(a.X)}, nil, tellIK)
				if code != http.StatusOK {
					t.Errorf("session %s tell %d: status %d", id, a.ProposalID, code)
					return
				}
				ackedTells.Add(1)
			}
		}(i)
	}
	wg.Wait()
	<-killed
	if t.Failed() {
		for i, d := range nodes {
			t.Logf("node n%d log tail:\n%s", i, tail(d.logs.String(), 4000))
		}
		t.FailNow()
	}

	// Every history must match the uninterrupted reference bit for bit:
	// all 8 acknowledged tells present, same proposals, same best.
	rng := rand.New(rand.NewSource(99))
	survivors := make([]string, 0, 2)
	for i, b := range bases {
		if i != victim {
			survivors = append(survivors, b)
		}
	}
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("load-%03d", i)
		var st statusResp
		if code := clusterCall(t, rng, survivors, "GET", "/sessions/"+id, nil, &st, ""); code != http.StatusOK {
			t.Fatalf("final status of %s: %d", id, code)
		}
		if !st.Done || st.Aborted != "" {
			t.Fatalf("session %s not cleanly done after node loss: done=%v aborted=%q", id, st.Done, st.Aborted)
		}
		if !reflect.DeepEqual(st.Records, want.Records) {
			t.Fatalf("session %s history diverged from single-node reference:\n got  %+v\n want %+v",
				id, st.Records, want.Records)
		}
	}
	for _, d := range nodes {
		d.kill()
	}
	auditDataDir(t, bin, dataDir)
}

// TestClusterRoutesAcrossNodes is the cheap always-on sanity check for the
// cluster wiring in main: a session created through one node is served
// through the others, no kill involved.
func TestClusterRoutesAcrossNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test is not -short friendly")
	}
	bin, err := buildEasybod()
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	ports := []int{freePort(t), freePort(t), freePort(t)}
	peers := fmt.Sprintf("n0=http://127.0.0.1:%d,n1=http://127.0.0.1:%d,n2=http://127.0.0.1:%d",
		ports[0], ports[1], ports[2])
	var nodes []*daemon
	for i, port := range ports {
		nodes = append(nodes, startClusterNode(t, bin, dataDir, fmt.Sprintf("n%d", i), peers, port, "interval"))
	}
	spec := sessionSpec("hop", 6, 2)
	if code, err := callNode(nodes[0].base, "POST", "/sessions", spec, nil, ""); err != nil || code != http.StatusCreated {
		t.Fatalf("create via n0: code %d err %v", code, err)
	}
	for round := 0; ; round++ {
		d := nodes[round%3]
		var a askResp
		if code, err := callNode(d.base, "POST", "/sessions/hop/ask", map[string]any{}, &a, ""); err != nil || code != http.StatusOK {
			t.Fatalf("ask via %s: code %d err %v", d.base, code, err)
		}
		if a.Status == "done" {
			break
		}
		if code, err := callNode(d.base, "POST", "/sessions/hop/tell",
			map[string]any{"proposal_id": a.ProposalID, "y": sphere(a.X)}, nil, ""); err != nil || code != http.StatusOK {
			t.Fatalf("tell via %s: code %d err %v", d.base, code, err)
		}
	}
	var st statusResp
	if code, err := callNode(nodes[2].base, "GET", "/sessions/hop", nil, &st, ""); err != nil || code != http.StatusOK {
		t.Fatalf("status via n2: code %d err %v", code, err)
	}
	if !st.Done || len(st.Records) != 6 {
		t.Fatalf("session state wrong after cross-node driving: done=%v records=%d", st.Done, len(st.Records))
	}
}

// tail returns the last n bytes of s for failure logs.
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
