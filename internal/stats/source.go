package stats

import (
	"fmt"
	"math/rand"
)

// CountingSource is a math/rand source that knows how many values it has
// produced. math/rand's generator cannot be serialized, but its state is a
// pure function of (seed, draws so far), so a position is enough to put a
// fresh source back where an earlier one stood: SeekTo draws and discards
// the difference, a few nanoseconds a value.
//
// The stream is the wrapped source's stream bit for bit. Both Int63 and
// Uint64 advance math/rand's generator by exactly one step (Int63 is a
// masked Uint64), and rand.Rand keeps no state of its own beyond the source
// (outside Read, which nothing here uses), so wrapping changes no draw of
// any rand.Rand method — only counts them, for the price of one more
// indirect call a draw (a nanosecond or two).
//
// Like the source it wraps, a CountingSource is for one goroutine.
type CountingSource struct {
	src rand.Source64
	pos uint64
}

// NewCountingSource starts counting the draws from src, at position 0. src
// may already have been drawn from — whatever came before is simply not
// counted, so two runs that wrap at the same point of the same stream agree
// on every later position. src must implement rand.Source64, as every
// rand.NewSource does.
func NewCountingSource(src rand.Source) *CountingSource {
	return &CountingSource{src: src.(rand.Source64)}
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.pos++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.pos++
	return c.src.Uint64()
}

// Seed implements rand.Source: the wrapped source is reseeded and the count
// restarts at 0.
func (c *CountingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.pos = 0
}

// Pos returns the number of values drawn since counting started.
func (c *CountingSource) Pos() uint64 { return c.pos }

// SeekTo advances the source to position pos by discarding draws. The
// generator only runs forwards: a position already passed is an error and
// leaves the source where it was.
func (c *CountingSource) SeekTo(pos uint64) error {
	if pos < c.pos {
		return fmt.Errorf("stats: cannot seek rng back from position %d to %d", c.pos, pos)
	}
	for c.pos < pos {
		c.src.Uint64()
		c.pos++
	}
	return nil
}
