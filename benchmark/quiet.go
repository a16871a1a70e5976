package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// A block is one execution of a workload's fixed work on fresh state. Every
// block of a run does bit-for-bit the same work, so sample k of a series is
// the same operation in every block, and after each timed operation the
// block runs the calibration spin, which says how fast the box was then.
type block struct {
	// series holds times in seconds, in a fixed order per name: "setup"
	// (set-up ops), "rt" (timed round trips), "recover" (restart
	// repetitions), the CPU twin "cpu:"+name of each, "spin" (calibration
	// spins), and in a traced block one per span name.
	series map[string][]float64
	// scalars are block-level quantities that cannot be split per op.
	scalars map[string]float64
	// counts are exact counters (calls, records, compactions).
	counts map[string]float64

	digest    uint64  // hash over every told (x, y) in order
	bestY     float64 // the session's best FOM
	attempted int     // timed round trips attempted
	failed    int     // round trips that failed or were refused
	spans     []span  // traced blocks only
}

func newBlock() *block {
	return &block{series: map[string][]float64{}, scalars: map[string]float64{}, counts: map[string]float64{}}
}

func (b *block) add(name string, seconds float64) {
	b.series[name] = append(b.series[name], seconds)
}

// samples accumulates the blocks of one run.
type samples struct {
	blocks []*block
}

const spinSeries = "spin"

// slowdown returns, per block, how much slower than at its best the box ran
// the calibration spin during the block: the mean of the block's spins over
// the fastest spin of the run. This box's vCPUs run the same instructions
// up to twice slower for minutes at a time, whatever the guest does, and
// charge the stretched time as CPU time too; the fastest spin, on the other
// hand, reads the same in every run. A block without spins reads 1.
func (s *samples) slowdown() []float64 {
	fastest := math.Inf(1)
	for _, b := range s.blocks {
		if v := b.series[spinSeries]; len(v) > 0 {
			fastest = math.Min(fastest, minOf(v))
		}
	}
	f := make([]float64, len(s.blocks))
	for i, b := range s.blocks {
		f[i] = 1
		if v := b.series[spinSeries]; len(v) > 0 {
			f[i] = sum(v) / float64(len(v)) / fastest
		}
	}
	return f
}

// quiet returns, per operation of the named series, its quiet time: what the
// operation takes on this box when the box is at its best. Each block's
// sample is divided by the block's slowdown, and the quiet time is the
// median over blocks of the result. It fails when blocks disagree on the
// number of operations: identical blocks are the premise.
func (s *samples) quiet(name string) ([]float64, error) {
	if len(s.blocks) == 0 {
		return nil, nil
	}
	slow := s.slowdown()
	n := len(s.blocks[0].series[name])
	for i, b := range s.blocks {
		if len(b.series[name]) != n {
			return nil, fmt.Errorf("series %q: block %d has %d ops, block 0 has %d", name, i, len(b.series[name]), n)
		}
	}
	q := make([]float64, n)
	at := make([]float64, len(s.blocks))
	for k := range q {
		for i, b := range s.blocks {
			at[i] = b.series[name][k] / slow[i]
		}
		q[k] = median(at)
	}
	return q, nil
}

// quietTrips returns the quiet time of every timed round trip and the quiet
// throughput: round trips per second of quiet time.
func (s *samples) quietTrips() (trips []float64, perSecond float64, err error) {
	trips, err = s.quiet("rt")
	if err != nil || len(trips) == 0 {
		return nil, 0, err
	}
	return trips, float64(len(trips)) / sum(trips), nil
}

// minScalar is the minimum of a block-level quantity over blocks.
func (s *samples) minScalar(name string) float64 {
	m := math.Inf(1)
	for _, b := range s.blocks {
		if v, ok := b.scalars[name]; ok && v < m {
			m = v
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// quietLoose is quiet for span series, whose length may differ between blocks
// (a compaction that found one already in flight is skipped): when it does,
// every block's samples are pooled instead, each divided by its block's
// slowdown.
func (s *samples) quietLoose(name string) []float64 {
	if q, err := s.quiet(name); err == nil {
		return q
	}
	slow := s.slowdown()
	var all []float64
	for i, b := range s.blocks {
		for _, t := range b.series[name] {
			all = append(all, t/slow[i])
		}
	}
	return all
}

// medianScalar is the median over blocks of a block-level share or mean,
// for quantities where smaller is not better.
func (s *samples) medianScalar(name string) float64 {
	var v []float64
	for _, b := range s.blocks {
		if x, ok := b.scalars[name]; ok {
			v = append(v, x)
		}
	}
	return median(v)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func minOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// percentile is the nearest-rank percentile (p in (0, 100]) of v; 0 for an
// empty v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// percentile p. The guide wants at least ten, which is why the tail metric
// is p90: a block has 100 to 260 round trips.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := q(0.5)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digester hashes every told (x, y) of a block in order, so two blocks agree
// on the digest exactly when they walked the same history.
type digester struct{ h hash.Hash64 }

func newDigester() digester { return digester{fnv.New64a()} }

func (d digester) bits(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, _ = d.h.Write(buf[:]) // hash.Hash writes never fail
}

func (d digester) told(x []float64, y float64) {
	for _, v := range x {
		d.bits(math.Float64bits(v))
	}
	d.bits(math.Float64bits(y))
}

func (d digester) sum() uint64 { return d.h.Sum64() }

func inBox(x, lo, hi []float64) bool {
	if len(x) != len(lo) {
		return false
	}
	for i, v := range x {
		if !(v >= lo[i] && v <= hi[i]) {
			return false
		}
	}
	return true
}
