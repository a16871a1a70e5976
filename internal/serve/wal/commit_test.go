package wal

import (
	"fmt"
	"sync"
	"testing"

	"easybo/internal/serve"
)

// TestGroupCommitConcurrentAckOrdering is the -race stress test for the
// commit pipeline: N session logs append concurrently through the one
// store committer while a waiter per session acks each record with
// WaitDurable. It asserts the ack contract — WaitDurable(seq) returns only
// after a sync covering seq — and that the store's amortization accounting
// covers every record exactly once.
func TestGroupCommitConcurrentAckOrdering(t *testing.T) {
	const (
		nSessions = 8
		nAppends  = 200
	)
	st := mustOpen(t, t.TempDir(), Options{Fsync: PolicyAlways, CompactEvery: -1})

	logs := make([]*Log, nSessions)
	for i := range logs {
		l, err := st.Begin(fmt.Sprintf("s%02d", i), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l.(*Log)
	}

	errs := make(chan error, nSessions*2)
	var wg sync.WaitGroup
	for _, l := range logs {
		l := l
		tickets := make(chan uint64, nAppends)
		// The appender plays the session actor: serialized appends, never
		// waiting for durability itself — that pipelining is what the
		// committer coalesces.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(tickets)
			for i := 0; i < nAppends; i++ {
				seq, err := l.Append(askEvent(i, float64(i)/nAppends, 0.5))
				if err != nil {
					errs <- fmt.Errorf("%s: append %d: %w", l.id, i, err)
					return
				}
				tickets <- seq
			}
		}()
		// The waiter plays the HTTP handler: one WaitDurable per ticket,
		// each checked against the published sync watermark.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range tickets {
				if err := l.WaitDurable(seq); err != nil {
					errs <- fmt.Errorf("%s: wait %d: %w", l.id, seq, err)
					return
				}
				l.mu.Lock()
				synced := l.syncedSeq
				l.mu.Unlock()
				if synced <= seq {
					errs <- fmt.Errorf("%s: WaitDurable(%d) returned with syncedSeq=%d — acked before its fsync", l.id, seq, synced)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every record — one create plus nAppends events per session — must be
	// covered by exactly one accounted sync delta.
	syncs, records := st.SyncStats()
	wantRecords := uint64(nSessions * (nAppends + 1))
	if records != wantRecords {
		t.Errorf("SyncStats records = %d, want %d", records, wantRecords)
	}
	if syncs == 0 || syncs > records {
		t.Errorf("SyncStats syncs = %d out of range (records %d)", syncs, records)
	}
	t.Logf("amortization: %d records / %d syncs = %.1f records per fsync", records, syncs, float64(records)/float64(syncs))

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing acked may be missing: reload and count.
	st2 := mustOpen(t, st.root, Options{})
	defer st2.Close()
	pss := loadAll(t, st2)
	if len(pss) != nSessions {
		t.Fatalf("recovered %d sessions, want %d", len(pss), nSessions)
	}
	for _, ps := range pss {
		if ps.Corrupt != nil {
			t.Errorf("%s: corrupt after clean close: %v", ps.ID, ps.Corrupt)
			continue
		}
		if len(ps.Events) != nAppends {
			t.Errorf("%s: recovered %d events, want %d", ps.ID, len(ps.Events), nAppends)
		}
	}
}

// TestGroupCommitAsyncCompaction drives the off-actor compaction path under
// concurrent appends: BeginCompact seals on one goroutine, the commit runs
// on another while appends keep landing, and the recovered state must hold
// the snapshot base plus the complete tail.
func TestGroupCommitAsyncCompaction(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{Fsync: PolicyAlways, CompactEvery: -1})
	cfg := testConfig()
	sl, err := st.Begin("ac", cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := sl.(*Log)

	var pre []serve.Event
	for i := 0; i < 6; i++ {
		ev := askEvent(i, float64(i)/6, 0.5)
		pre = append(pre, ev)
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	commit, err := l.BeginCompact()
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.Snapshot{
		Version: serve.SnapshotVersion, ID: "ac", Config: cfg,
		Events: pre, Observations: 0, Pending: len(pre),
	}
	done := make(chan error, 1)
	go func() { done <- commit(snap) }()
	// Appends race the commit; they land past the cut, in the fresh segment.
	var tail []serve.Event
	for i := 6; i < 12; i++ {
		ev := askEvent(i, float64(i)/12, 0.5)
		tail = append(tail, ev)
		seq, err := l.Append(ev)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, st.root, Options{})
	defer st2.Close()
	ps := loadOne(t, st2, "ac")
	if ps.Corrupt != nil {
		t.Fatalf("corrupt after async compaction: %v", ps.Corrupt)
	}
	if ps.Snapshot == nil || len(ps.Snapshot.Events) != len(pre) {
		t.Fatalf("snapshot base missing or wrong: %+v", ps.Snapshot)
	}
	if !eventsEqual(ps.Events, tail) {
		t.Fatalf("tail diverged:\n got  %+v\n want %+v", ps.Events, tail)
	}
}

// TestLogAppendZeroAlloc pins the steady-state Append to zero allocations:
// the frame is built in the log's reused scratch buffer and the encoder is
// bound once, so the serving hot loop's WAL cost is pure I/O. Averaged over
// many runs so a stray GC emptying encoding/json's internal pool cannot
// flake the pin.
func TestLogAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside Append")
	}
	st := mustOpen(t, t.TempDir(), Options{Fsync: PolicyOff, CompactEvery: -1, SegmentBytes: 1 << 30})
	defer st.Close()
	sl, err := st.Begin("za", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := sl.(*Log)
	ev := askEvent(1, 0.25, 0.5)
	// Warm the scratch buffer and the encoder's internal state.
	for i := 0; i < 8; i++ {
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.01 {
		t.Fatalf("steady-state Append allocates %.3f times per op, want 0", avg)
	}
}

// BenchmarkLogAppend measures the framing + buffered-write cost of one WAL
// append with fsync off — the CPU the serving hot loop pays per event
// before any disk sync.
func BenchmarkLogAppend(b *testing.B) {
	st, err := Open(b.TempDir(), Options{Fsync: PolicyOff, CompactEvery: -1, SegmentBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	sl, err := st.Begin("bench", testConfig())
	if err != nil {
		b.Fatal(err)
	}
	ev := askEvent(1, 0.25, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sl.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}
