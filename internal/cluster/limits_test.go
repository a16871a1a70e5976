package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"easybo/internal/serve"
)

// A request body over serve's limit is refused by the node it arrives at:
// 413, and the owner never sees it. It used to be buffered whole (or, past
// 16 MiB, cut short) and proxied for the owner to refuse.
func TestOversizedRequestRefusedBeforeProxying(t *testing.T) {
	tc := newTestCluster(t, 2)
	id := tc.idOwnedBy("node0", "big")
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create via node1: status %d", code)
	}
	var forwarded atomic.Int64
	owner := tc.nodes["node0"].node
	tc.nodes["node0"].swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(forwardedHeader) != "" {
			forwarded.Add(1)
		}
		owner.ServeHTTP(w, r)
	}))
	// Valid JSON naming a session node0 owns, so only the size can stop
	// node1 from routing it there.
	fresh := tc.idOwnedBy("node0", "bigger")
	body := []byte(fmt.Sprintf(`{"id":%q,"name":%q}`, fresh, strings.Repeat("x", serve.MaxBodyBytes+1<<20)))
	for _, req := range []struct {
		path    string
		chunked bool // no declared length: the limit trips mid-read instead
	}{
		{path: "/sessions"},
		{path: "/sessions/restore"},
		{path: "/sessions/" + id + "/tell"},
		{path: "/sessions", chunked: true},
	} {
		var rd io.Reader = bytes.NewReader(body)
		if req.chunked {
			rd = struct{ io.Reader }{rd}
		}
		resp, err := http.Post(tc.url("node1")+req.path, "application/json", rd)
		if err != nil {
			t.Fatalf("POST %s: %v", req.path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s (chunked %v) with %d bytes via node1: status %d, want 413: %.200s", req.path, req.chunked, len(body), resp.StatusCode, msg)
		}
	}
	if n := forwarded.Load(); n != 0 {
		t.Errorf("node1 proxied %d oversized requests to the owner", n)
	}
}

// A forwarded response too large to buffer becomes a 502 that names the
// owner. It used to be relayed cut short under the owner's 200.
func TestOversizedForwardedResponseIsNotRelayedTruncated(t *testing.T) {
	tc := newTestCluster(t, 2)
	id := tc.idOwnedBy("node0", "long")
	if code := call(t, http.MethodPost, tc.url("node1")+"/sessions", sessionConfig(id), nil); code != http.StatusCreated {
		t.Fatalf("create via node1: status %d", code)
	}
	// node0 answers a forwarded status read as the owner of a very long
	// session would: 200 and more bytes than a forwarder buffers.
	owner := tc.nodes["node0"].node
	tc.nodes["node0"].swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/sessions/"+id {
			owner.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"name":%q}`, id, strings.Repeat("x", maxForwardedBytes))
	}))
	resp, err := http.Get(tc.url("node1") + "/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || !bytes.Contains(msg, []byte("node0")) {
		t.Fatalf("status %d, %d bytes, want a 502 naming node0: %.200s", resp.StatusCode, len(msg), msg)
	}
}
