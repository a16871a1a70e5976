// Package loadgen drives synthetic ask/tell load against an easybod
// daemon and summarizes throughput, latency quantiles, shed and wait
// counts. cmd/easyboload is the CLI; the shed-equivalence test
// under cmd/easyboload is the correctness side of the same harness. Its
// Client is also the HTTP client the repo benchmark drives the daemon with.
//
// loadgen sits outside the determinism boundary (it is a measurement tool,
// not replayed state), so it uses the wall clock freely.
package loadgen

import (
	"math"
	"math/bits"
	"time"
)

// histogram is a fixed-size log-bucketed latency histogram: 8 sub-buckets
// per power-of-two octave from ~1µs to ~4.5min, ~9% worst-case relative
// error per bucket. Fixed arrays make per-worker histograms cheap to keep
// and merge, so the hot measurement path takes no locks.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMinBits = 10               // first octave starts at 2^10 ns ≈ 1µs
	histOctaves = 28               // top octave ends at 2^38 ns ≈ 4.6min
	histBuckets = histOctaves*histSub + 1
)

type histogram struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

// bucketOf maps a latency in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1<<histMinBits {
		return 0
	}
	top := bits.Len64(uint64(ns)) - 1 // position of the highest set bit
	oct := top - histMinBits
	if oct >= histOctaves {
		return histBuckets - 1
	}
	sub := (ns >> (top - histSubBits)) & (histSub - 1)
	return oct*histSub + int(sub)
}

// bucketUpper is the inclusive upper edge of bucket i in nanoseconds, so
// quantiles report conservatively (never lower than the true value). The
// overflow bucket is unbounded; quantile clamps it to the exact observed
// maximum.
func bucketUpper(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	oct, sub := i/histSub, int64(i%histSub)
	return (histSub + sub + 1) << (histMinBits + oct - histSubBits)
}

func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *histogram) merge(o *histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds: the upper
// edge of the bucket where the cumulative count crosses q·n, clamped to
// the exact observed maximum. Zero when empty.
func (h *histogram) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			up := bucketUpper(i)
			if up > h.max {
				return h.max
			}
			return up
		}
	}
	return h.max
}
