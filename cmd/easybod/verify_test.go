package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestVerifyVerdicts runs the offline audit over the three pinned data
// directories of internal/serve: a log this build's generation wrote verifies
// (exit 0); a log an older build wrote is neither a divergence nor a pass —
// its sessions are reported UNVERIFIABLE with the generation of their asks,
// and the exit code is 2, which no script takes for success.
func TestVerifyVerdicts(t *testing.T) {
	const fixtures = "../../internal/serve/testdata/"
	for _, c := range []struct {
		dir  string
		code int
		want string
	}{
		{"gen3_wal/pin-exact", 0, "pin-exact: ok (38 events, 20 asks re-derived)"},
		{"gen3_wal/pin-features", 0, "verified 1 session(s), 0 diverged, 0 unverifiable"},
		{"gen2_wal/pin-exact", 2, "pin-exact: UNVERIFIABLE (generation 2): 38 events replay, 0 asks re-derived, 14 asks of proposer generation 2"},
		{"gen2_wal/pin-features", 2, "verified 0 session(s), 0 diverged, 1 unverifiable"},
		{"gen1_wal/pin-exact", 2, "pin-exact: UNVERIFIABLE (generation 1): 38 events replay, 0 asks re-derived, 14 asks of proposer generation 1"},
		{"gen1_wal/pin-features", 2, "verified 0 session(s), 0 diverged, 1 unverifiable"},
		{"no-such-directory", 1, ""},
	} {
		var out bytes.Buffer
		if code := verify(fixtures+c.dir, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("verify %s: exit %d, want %d, and a line with %q:\n%s", c.dir, code, c.code, c.want, out.String())
		}
	}
}
