package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"easybo/internal/serve"
	"easybo/internal/serve/wal"
)

// handlerSwap lets the httptest listener exist before the Node it serves
// (URLs go into the membership table the Node is built from), and lets a
// "revived" node swap a fresh Node in behind the same address.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *handlerSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, `{"error":"booting"}`, http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one in-process cluster member.
type testNode struct {
	id   string
	addr string
	swap *handlerSwap
	ts   *httptest.Server
	sv   *serve.Server
	node *Node
	// wrap, when set, wraps every Node booted for this member before it
	// goes live, so a test can watch what the member is sent.
	wrap func(http.Handler) http.Handler
}

type testCluster struct {
	t     *testing.T
	fs    *wal.MemFS // the shared data directory: each node opens its own Store on it
	table Table
	nodes map[string]*testNode
	ring  *Ring
}

func newTestCluster(t *testing.T, size int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		fs:    wal.NewMemFS(),
		nodes: map[string]*testNode{},
	}
	tc.table.Version = 1
	names := make([]string, size)
	for i := 0; i < size; i++ {
		names[i] = fmt.Sprintf("node%d", i)
		swap := &handlerSwap{}
		ts := httptest.NewServer(swap)
		tc.nodes[names[i]] = &testNode{
			id:   names[i],
			addr: ts.Listener.Addr().String(),
			swap: swap,
			ts:   ts,
		}
		tc.table.Members = append(tc.table.Members, Member{ID: names[i], URL: ts.URL})
	}
	ring, err := NewRing(tc.table)
	if err != nil {
		t.Fatal(err)
	}
	tc.ring = ring
	for _, name := range names {
		tc.boot(name)
	}
	t.Cleanup(func() {
		for _, tn := range tc.nodes {
			if tn.node != nil {
				tn.node.Stop()
			}
			if tn.ts != nil {
				tn.ts.Close()
			}
		}
	})
	return tc
}

// boot builds a fresh serve.Server + Node for a member and swaps it live.
func (tc *testCluster) boot(id string) {
	tc.t.Helper()
	tn := tc.nodes[id]
	st, err := wal.OpenMem(tc.fs, wal.Options{})
	if err != nil {
		tc.t.Fatal(err)
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st, NodeID: id})
	node, err := New(sv, Config{
		Self:           id,
		Table:          tc.table,
		Heartbeat:      50 * time.Millisecond,
		SuspectAfter:   2,
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    10,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	rep, err := sv.RecoverOwned(node.Owns)
	if err != nil {
		tc.t.Fatal(err)
	}
	node.Start(rep)
	tn.sv, tn.node = sv, node
	var h http.Handler = node
	if tn.wrap != nil {
		h = tn.wrap(node)
	}
	tn.swap.set(h)
}

// kill simulates a node death: the listener refuses connections and the
// server shuts down (every session actor drains, its log handle closes and
// its lock is released — the shared filesystem survives).
func (tc *testCluster) kill(id string) {
	tn := tc.nodes[id]
	tn.ts.Close()
	tn.node.Stop()
	tn.sv.Close()
	tn.ts, tn.node, tn.sv = nil, nil, nil
	tn.swap.set(nil)
}

// revive restarts a killed node on its original address.
func (tc *testCluster) revive(id string) {
	tc.t.Helper()
	tn := tc.nodes[id]
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		l, err = net.Listen("tcp", tn.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tc.t.Fatalf("rebinding %s on %s: %v", id, tn.addr, err)
	}
	ts := httptest.NewUnstartedServer(tn.swap)
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	tn.ts = ts
	tc.boot(id)
}

func (tc *testCluster) url(id string) string { return tc.nodes[id].ts.URL }

// idOwnedBy derives a session id the ring places on the wanted node.
func (tc *testCluster) idOwnedBy(owner, prefix string) string {
	for i := 0; ; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		if tc.ring.Owner(id).ID == owner {
			return id
		}
	}
}

// call issues one JSON request and decodes the response.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func sessionConfig(id string) map[string]any {
	return map[string]any{
		"id":          id,
		"lo":          []float64{0, 0},
		"hi":          []float64{1, 1},
		"seed":        7,
		"init_points": 3,
		"max_evals":   64,
	}
}

// drive asks once and tells the result back through the given base URL,
// returning the proposal that was acknowledged (nil on wait/done).
func drive(t *testing.T, base, id string) *serve.Ask {
	t.Helper()
	var ask serve.Ask
	if code := call(t, http.MethodPost, base+"/sessions/"+id+"/ask", nil, &ask); code != http.StatusOK {
		t.Fatalf("ask via %s: status %d", base, code)
	}
	if ask.Status != serve.AskOK {
		return nil
	}
	y := ask.X[0] + 2*ask.X[1]
	if code := call(t, http.MethodPost, base+"/sessions/"+id+"/tell",
		map[string]any{"proposal_id": ask.ProposalID, "y": y}, &serve.TellAck{}); code != http.StatusOK {
		t.Fatalf("tell via %s: status %d", base, code)
	}
	return &ask
}

func TestAnyNodeRouting(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node0", "route")
	// Create through a non-owner: the request must land on node0.
	if code := call(t, http.MethodPost, tc.url("node2")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create via node2: status %d", code)
	}
	if !tc.nodes["node0"].sv.Has(id) {
		t.Fatalf("session %q did not land on its ring owner node0", id)
	}
	if tc.nodes["node2"].sv.Has(id) {
		t.Fatalf("session %q also lives on the entry node node2", id)
	}
	// Drive through every node round-robin; state must stay coherent.
	acked := 0
	for i := 0; i < 9; i++ {
		base := tc.url(fmt.Sprintf("node%d", i%3))
		if drive(t, base, id) != nil {
			acked++
		}
	}
	var st serve.Status
	if code := call(t, http.MethodGet, tc.url("node1")+"/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("status via node1: %d", code)
	}
	if st.Observations != acked || len(st.Records) != acked {
		t.Fatalf("%d observations, %d records, %d acked tells", st.Observations, len(st.Records), acked)
	}
	// The ?since= cursor rides the forward: node1 and node2 proxy, node0 owns.
	for _, node := range []string{"node0", "node1", "node2"} {
		var tail serve.Status
		if code := call(t, http.MethodGet, fmt.Sprintf("%s/sessions/%s?since=%d", tc.url(node), id, acked-2), nil, &tail); code != http.StatusOK {
			t.Fatalf("status?since via %s: %d", node, code)
		}
		if len(tail.Records) != 2 || tail.Observations != acked || tail.Records[1].ID != st.Records[acked-1].ID {
			t.Fatalf("since=%d via %s: %d records of %d observations", acked-2, node, len(tail.Records), tail.Observations)
		}
	}
}

func TestCreateWithoutIDRoutesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3)
	var created struct {
		ID string `json:"id"`
	}
	cfg := sessionConfig("")
	delete(cfg, "id")
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions", cfg, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID == "" {
		t.Fatal("no id assigned")
	}
	owner := tc.ring.Owner(created.ID).ID
	if !tc.nodes[owner].sv.Has(created.ID) {
		t.Fatalf("generated session %q not on its ring owner %s", created.ID, owner)
	}
}

func TestFailoverLosesNoAcknowledgedTell(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node0", "failover")
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	acked := 0
	for i := 0; i < 5; i++ {
		if drive(t, tc.url("node1"), id) != nil {
			acked++
		}
	}
	tc.kill("node0")
	// Survivors must adopt and keep serving; every pre-kill acked tell
	// must still be in the history.
	for i := 0; i < 5; i++ {
		base := tc.url(fmt.Sprintf("node%d", 1+i%2))
		if drive(t, base, id) != nil {
			acked++
		}
	}
	var st serve.Status
	if code := call(t, http.MethodGet, tc.url("node2")+"/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("status after failover: %d", code)
	}
	if st.Observations != acked {
		t.Fatalf("observations %d after failover, acked tells %d", st.Observations, acked)
	}
	if st.Epoch < 2 {
		t.Fatalf("epoch %d after failover adoption, want >= 2", st.Epoch)
	}
}

func TestStaleOwnerIsFenced(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node0", "fence")
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var ask serve.Ask
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions/"+id+"/ask", nil, &ask); code != http.StatusOK {
		t.Fatalf("ask: %d", code)
	}
	sv0 := tc.nodes["node0"].sv
	if err := sv0.BeginHandoff(id, "node1"); err != nil {
		t.Fatal(err)
	}
	// The old owner's copy is fenced: an in-flight tell against it must be
	// rejected with 412, never absorbed.
	req, _ := http.NewRequest(http.MethodPost, tc.url("node0")+"/sessions/"+id+"/tell",
		bytes.NewReader([]byte(fmt.Sprintf(`{"proposal_id": %d, "y": 1.5}`, ask.ProposalID))))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Easybod-Forwarded-By", "test") // pin to this node: no re-forwarding
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("tell to fenced owner: status %d, want 412", resp.StatusCode)
	}
	// Finish the transfer; the new owner serves, and the told outcome is
	// applied exactly once there.
	var ack adoptResponse
	if code := call(t, http.MethodPost, tc.url("node1")+"/cluster/adopt", adoptRequest{ID: id}, &ack); code != http.StatusOK {
		t.Fatalf("adopt: %d (%+v)", code, ack)
	}
	if ack.Adopted != "store" {
		t.Fatalf("adopted %q, want store", ack.Adopted)
	}
	if err := sv0.CompleteHandoff(id); err != nil {
		t.Fatal(err)
	}
	var st serve.TellAck
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions/"+id+"/tell",
		map[string]any{"proposal_id": ask.ProposalID, "y": 1.5}, &st); code != http.StatusOK {
		t.Fatalf("tell to new owner: %d", code)
	}
	if st.Observations != 1 || st.Pending != 0 {
		t.Fatalf("new owner state: %d observations, %d pending", st.Observations, st.Pending)
	}
	if st.Epoch < 2 {
		t.Fatalf("epoch %d after handoff, want >= 2", st.Epoch)
	}
}

func TestIdempotentRetries(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node1", "idem")
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	// Ask twice with the same key: the retried delivery must see the
	// originally issued proposal, not consume a second budget slot.
	askWith := func(key string) serve.Ask {
		req, _ := http.NewRequest(http.MethodPost, tc.url("node2")+"/sessions/"+id+"/ask", nil)
		req.Header.Set(serve.IdempotencyHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var a serve.Ask
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := askWith("ask-key-1"), askWith("ask-key-1")
	if a1.ProposalID != a2.ProposalID {
		t.Fatalf("retried ask issued a different proposal: %d vs %d", a1.ProposalID, a2.ProposalID)
	}
	// Tell twice with the same key: applied exactly once.
	tell := map[string]any{"proposal_id": a1.ProposalID, "y": 0.25, "ik": "tell-key-1"}
	var st1, st2 serve.TellAck
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions/"+id+"/tell", tell, &st1); code != http.StatusOK {
		t.Fatalf("tell: %d", code)
	}
	if code := call(t, http.MethodPost, tc.url("node2")+"/sessions/"+id+"/tell", tell, &st2); code != http.StatusOK {
		t.Fatalf("retried tell: %d", code)
	}
	if st1.Observations != 1 || st2.Observations != 1 {
		t.Fatalf("observations after duplicate tell: %d then %d, want 1 and 1", st1.Observations, st2.Observations)
	}
}

func TestHealAfterOwnerReturns(t *testing.T) {
	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node0", "heal")
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	acked := 0
	for i := 0; i < 3; i++ {
		if drive(t, tc.url("node0"), id) != nil {
			acked++
		}
	}
	tc.kill("node0")
	for i := 0; i < 3; i++ {
		if drive(t, tc.url("node1"), id) != nil {
			acked++
		}
	}
	tc.revive("node0")
	// The revived owner must not replay its stale copy (the fence names
	// the adopter), and the heartbeat heal must eventually move the
	// session home.
	deadline := time.Now().Add(10 * time.Second)
	for !tc.nodes["node0"].sv.Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("session never healed back to its ring owner")
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if drive(t, tc.url(fmt.Sprintf("node%d", i)), id) != nil {
			acked++
		}
	}
	var st serve.Status
	if code := call(t, http.MethodGet, tc.url("node2")+"/sessions/"+id, nil, &st); code != http.StatusOK {
		t.Fatalf("status after heal: %d", code)
	}
	if st.Observations != acked {
		t.Fatalf("observations %d after heal, acked %d — history forked or lost", st.Observations, acked)
	}
	if st.Epoch < 3 {
		t.Fatalf("epoch %d after failover + heal, want >= 3", st.Epoch)
	}
}

// TestFailoverAndHealResumeAtACheckpoint: ownership moves are recoveries, and
// they take the same short path a restart does. A session far enough along to
// have logged checkpoints is adopted by a survivor after its owner dies, then
// handed home when the owner returns; both rebuilds must resume at a
// checkpoint (never replay from the first event, never fall back), and the
// history the cluster ends with must be the single-node history bit for bit.
func TestFailoverAndHealResumeAtACheckpoint(t *testing.T) {
	const perLeg = 7
	cfg := sessionConfig("")
	cfg["fit_iters"], cfg["refit_every"] = 8, 3

	// Reference: the same asks and tells against one plain server.
	refStore, err := wal.OpenMem(wal.NewMemFS(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := serve.NewServerWith(serve.ServerOptions{Store: refStore})
	if _, err := ref.Recover(); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref)
	defer func() { rts.Close(); ref.Close() }()
	cfg["id"] = "ref"
	if code := call(t, http.MethodPost, rts.URL+"/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatalf("reference create: status %d", code)
	}
	for i := 0; i < 3*perLeg; i++ {
		drive(t, rts.URL, "ref")
	}
	var want serve.Status
	call(t, http.MethodGet, rts.URL+"/sessions/ref", nil, &want)

	tc := newTestCluster(t, 3)
	id := tc.idOwnedBy("node0", "ckpt")
	cfg["id"] = id
	if code := call(t, http.MethodPost, tc.url("node0")+"/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	totals := func(nodes ...string) (tot serve.RecoveryTotals) {
		for _, n := range nodes {
			nt := tc.nodes[n].sv.RecoveryTotals()
			tot.Checkpoint += nt.Checkpoint
			tot.Full += nt.Full
			tot.Fallback += nt.Fallback
			tot.AsksRederived += nt.AsksRederived
		}
		return tot
	}
	for i := 0; i < perLeg; i++ {
		drive(t, tc.url("node0"), id)
	}
	var snap serve.Snapshot
	call(t, http.MethodGet, tc.url("node0")+"/sessions/"+id+"/snapshot", nil, &snap)
	ckpts := 0
	for _, ev := range snap.Events {
		if ev.Ckpt != nil {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Fatalf("no checkpoint among the first %d events; drive longer", len(snap.Events))
	}

	tc.kill("node0")
	for i := 0; i < perLeg; i++ {
		drive(t, tc.url("node1"), id)
	}
	if tot := totals("node1", "node2"); tot.Checkpoint != 1 || tot.Full != 0 || tot.Fallback != 0 || tot.AsksRederived > 2 {
		t.Fatalf("failover adoption: recovery totals %+v, want one checkpoint resume", tot)
	}

	tc.revive("node0")
	deadline := time.Now().Add(10 * time.Second)
	for !tc.nodes["node0"].sv.Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("session never healed back to its ring owner")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if tot := totals("node0"); tot.Checkpoint != 1 || tot.Full != 0 || tot.Fallback != 0 {
		t.Fatalf("heal handoff: recovery totals %+v on the returning owner, want one checkpoint resume", tot)
	}
	for i := 0; i < perLeg; i++ {
		drive(t, tc.url(fmt.Sprintf("node%d", i%3)), id)
	}
	var got serve.Status
	if code := call(t, http.MethodGet, tc.url("node2")+"/sessions/"+id, nil, &got); code != http.StatusOK {
		t.Fatalf("status after heal: %d", code)
	}
	if len(got.Records) != 3*perLeg || !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatalf("history after failover and heal differs from the single-node run:\n got  %+v\n want %+v", got.Records, want.Records)
	}
}

// TestHealAdoptCarriesOnlyTheID: the heal's POST /cluster/adopt names the
// session and nothing else — the target replays the log from the store — so
// its body does not grow with the history, and no history is long enough
// to push it past the adopt route's body limit.
func TestHealAdoptCarriesOnlyTheID(t *testing.T) {
	tc := newTestCluster(t, 2)
	id := tc.idOwnedBy("node0", "small")
	tc.kill("node0")
	cfg := sessionConfig(id)
	cfg["init_points"] = 64 // design points only: a long history without a model fit
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatalf("create via node1: status %d", code)
	}
	for i := 0; i < 60; i++ {
		drive(t, tc.url("node1"), id)
	}
	var snap serve.Snapshot
	call(t, http.MethodGet, tc.url("node1")+"/sessions/"+id+"/snapshot", nil, &snap)
	if data, _ := json.Marshal(snap); len(data) < 8<<10 {
		t.Fatalf("the session's snapshot is %d bytes; drive longer so a shipped snapshot would show", len(data))
	}

	var mu sync.Mutex
	var sizes []int
	tc.nodes["node0"].wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/cluster/adopt" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				mu.Lock()
				sizes = append(sizes, len(body))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
	tc.revive("node0")
	deadline := time.Now().Add(10 * time.Second)
	for !tc.nodes["node0"].sv.Has(id) {
		if time.Now().After(deadline) {
			t.Fatal("session never healed back to its ring owner")
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) == 0 {
		t.Fatal("the heal sent no adopt request")
	}
	for i, n := range sizes {
		if n >= 1<<10 {
			t.Errorf("adopt request %d carried %d bytes, want < 1 KB", i+1, n)
		}
	}
}

// TestHandoffRefusalIsNoStrike: a target that answers a handoff — here with
// 409, as it does for a session quarantined there or held elsewhere — is
// alive. SuspectAfter such refusals in one heal pass must not mark it
// suspect; only a transport failure counts against a peer.
func TestHandoffRefusalIsNoStrike(t *testing.T) {
	var adopts atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/adopt" {
			adopts.Add(1)
		}
		writeJSONError(w, http.StatusConflict, fmt.Errorf("refused"))
	}))
	defer target.Close()
	st, err := wal.OpenMem(wal.NewMemFS(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv := serve.NewServerWith(serve.ServerOptions{Store: st, NodeID: "a"})
	defer sv.Close()
	if _, err := sv.Recover(); err != nil {
		t.Fatal(err)
	}
	const suspectAfter = 2
	n, err := New(sv, Config{
		Self:         "a",
		Table:        Table{Version: 1, Members: []Member{{ID: "a", URL: "http://a.invalid"}, {ID: "b", URL: target.URL}}},
		SuspectAfter: suspectAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	defer ts.Close()
	var held []string
	for i := 0; len(held) < suspectAfter; i++ {
		id := fmt.Sprintf("refused-%d", i)
		if n.ring.Owner(id).ID != "b" {
			continue
		}
		if code := call(t, http.MethodPost, ts.URL+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
		held = append(held, id)
	}
	n.healHeldSessions(context.Background())
	if got := adopts.Load(); got != suspectAfter {
		t.Fatalf("the heal pass sent %d adopt requests, want %d", got, suspectAfter)
	}
	if !n.health.alive("b") {
		t.Fatal("a target that answered every handoff is suspected dead")
	}
	for _, id := range held {
		if !sv.Has(id) {
			t.Fatalf("aborted handoff of %s left it serving nowhere", id)
		}
	}
}
