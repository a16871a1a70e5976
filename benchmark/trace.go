package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round trip
// share rt; parent is the id of the span that caused this one (-1 at the
// top). Times are nanoseconds since the recorder was made.
type span struct {
	Name   string
	Track  int // one per client or session; spans of a track nest in time
	Start  int64
	End    int64
	Parent int
	RT     int
}

// recorder keeps the spans of one traced block in memory. A nil *recorder
// is tracing switched off: begin returns at once, so the untraced and the
// traced program differ only in the decorators installed around it.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[int][]int // track -> stack of open span ids
	rt    map[int]int   // track -> current round-trip id
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[int][]int{}, rt: map[int]int{}}
}

// setRT names the round trip the track's following spans belong to.
func (r *recorder) setRT(track, rt int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rt[track] = rt
	r.mu.Unlock()
}

// begin opens a span under the track's innermost open span and returns the
// function that closes it.
func (r *recorder) begin(track int, name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	parent := -1
	if st := r.open[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, span{Name: name, Track: track, Start: start, Parent: parent, RT: r.rt[track]})
	r.open[track] = append(r.open[track], id)
	r.mu.Unlock()
	return func() {
		end := time.Since(r.t0).Nanoseconds()
		r.mu.Lock()
		r.spans[id].End = end
		st := r.open[track]
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == id {
				r.open[track] = append(st[:i], st[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
	}
}

// add records an already measured interval under the track's innermost open
// span. On a track with nothing open it stands alone, which is how work that
// runs beside the request that caused it (a compaction commit) is recorded.
func (r *recorder) add(track int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	parent := -1
	if st := r.open[track]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Track: track, Parent: parent, RT: r.rt[track],
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// setupSuffix marks the series of spans recorded before the timed phase.
const setupSuffix = "@setup"

// durations groups closed spans by name, per track in start order, as
// seconds: the k-th span of a name on a track is the same call in every
// traced block, so the series get a quiet time like round trips. Spans of
// the set-up (round trip -1) form series of their own.
func durations(spans []span) map[string][]float64 {
	type key struct {
		track int
		name  string
	}
	by := map[key][]float64{}
	for _, s := range spans {
		k := key{s.Track, s.Name}
		if s.RT < 0 {
			k.name += setupSuffix
		}
		by[k] = append(by[k], float64(s.End-s.Start)/1e9)
	}
	// Tracks are concatenated in track order so the series layout is the
	// same in every block whatever order the goroutines first ran in.
	keys := make([]key, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].track < keys[j].track })
	out := map[string][]float64{}
	for _, k := range keys {
		out[k.name] = append(out[k.name], by[k]...)
	}
	return out
}

// writeTrace writes spans in the Chrome trace-event format, which Perfetto
// and chrome://tracing open: one complete ("X") event per span, times in
// microseconds, the span's own id, parent and round trip under args.
func writeTrace(dir, workload string, spans []span) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for id, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]int{"id": id, "parent": s.Parent, "rt": s.RT},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
